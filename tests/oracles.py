"""Brute-force counterparts of the closed-form model, for the tests: the
compound active return evaluated on a grid of active weights, with no
calculus, against which `dynte.model.optimal_theta` is checked."""

import numpy as np

from dynte.model import optimal_theta


def compound_active_return(theta: float, alpha: float, sigma: float) -> float:
    """Long-run compound active growth for a fixed active weight."""
    return theta * alpha - 0.5 * theta * theta * sigma * sigma


def make_theta_grid(alpha: float, sigma: float, step: float = 1e-4) -> np.ndarray:
    """Uniform grid over [0, 2*alpha/sigma^2] with spacing <= step."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    hi = 2.0 * optimal_theta(alpha, sigma)
    if hi <= 0.0:
        raise ValueError("grid needs alpha > 0")
    npts = int(np.ceil(hi / step)) + 1
    return np.linspace(0.0, hi, npts)


def brute_force_optimum(alpha: float, sigma: float, grid: np.ndarray) -> float:
    """Grid argmax of the compound active return."""
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or len(g) == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    obj = g * alpha - 0.5 * g * g * sigma * sigma
    return float(g[int(np.argmax(obj))])
