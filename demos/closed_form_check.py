"""Check the closed-form overlay results against a brute-force grid scan.

Prints the proposition table for the default two-state parameters, then
scans a theta grid for a handful of random (alpha, sigma) pairs to show
the argmax landing on alpha/sigma^2 every time.
"""

import numpy as np

from dynte.model import (
    GovernanceParams,
    RegimeParams,
    brute_force_optimum,
    compound_active_return,
    jensen_advantage,
    make_theta_grid,
    optimal_theta,
    proposition_suite,
)


def main():
    params = RegimeParams(alpha=(0.02, 0.10), sigma=(0.10, 0.25), p=0.3)
    gov = GovernanceParams(tau_bar=0.05)

    print("proposition checks")
    for c in proposition_suite(params, gov):
        flag = " (boundary)" if c.boundary else ""
        print(f"  prop {c.prop}: {c.status}{flag}  {c.note}")
    print(f"  jensen advantage: {jensen_advantage(params):.6f}")
    print()

    rng = np.random.default_rng(42)
    print("grid argmax vs alpha/sigma^2")
    print(f"{'alpha':>8} {'sigma':>8} {'closed form':>12} {'grid':>12} {'gap':>10}")
    for _ in range(8):
        sigma = rng.uniform(0.08, 0.35)
        alpha = rng.uniform(0.2, 0.8) * sigma
        grid = make_theta_grid(alpha, sigma, step=1e-4)
        star = optimal_theta(alpha, sigma)
        best = brute_force_optimum(alpha, sigma, grid)
        print(f"{alpha:8.4f} {sigma:8.4f} {star:12.6f} {best:12.6f} "
              f"{abs(best - star):10.2e}")
        value = compound_active_return(star, alpha, sigma)
        assert abs(value - 0.5 * (alpha / sigma) ** 2) < 1e-12


if __name__ == "__main__":
    main()
