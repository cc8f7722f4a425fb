"""Performance and tracking-error summaries for daily return paths.

Conventions: 252 trading days per year; CAGR compounds the full path and
annualizes by exponent 252/n; volatility is the sample standard deviation
scaled by sqrt(252); Sharpe divides the annualized mean excess return by
the annualized volatility of excess returns. A scalar risk-free rate is an
annual figure and is applied as rf/252 per day. Max drawdown is reported
as a magnitude in [0, 1], measured against a running peak that includes
the starting wealth of 1. `summarize` is the one performance summary of a
run; it returns a MetricsReport, and callers lay out their own tables.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record
from .timeseries import TRADING_DAYS_PER_YEAR, Series


def _returns(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("returns must be one-dimensional")
    if len(v) == 0:
        raise ValueError("empty return series")
    if np.any(v <= -1.0) or not np.all(np.isfinite(v)):
        raise ValueError("returns must be finite and > -1")
    return v


def wealth_path(returns) -> np.ndarray:
    """Cumulative wealth including the starting point: [1, ...]."""
    v = _returns(returns)
    out = np.empty(len(v) + 1)
    out[0] = 1.0
    np.cumprod(1.0 + v, out=out[1:])
    return out


def cagr(returns) -> float:
    v = _returns(returns)
    growth = float(np.prod(1.0 + v))
    return growth ** (TRADING_DAYS_PER_YEAR / len(v)) - 1.0


def annualized_vol(returns) -> float:
    v = _returns(returns)
    if len(v) < 2:
        raise ValueError("need at least two returns")
    return float(np.std(v, ddof=1)) * math.sqrt(TRADING_DAYS_PER_YEAR)


def _daily_rf(rf: Series | float, n: int) -> np.ndarray:
    """A per-day rate series as given, or a scalar annual rate spread evenly
    across days."""
    if isinstance(rf, Series):
        if len(rf) != n:
            raise ValueError("risk-free series length mismatch")
        return rf.values
    return np.full(n, float(rf) / TRADING_DAYS_PER_YEAR)


def sharpe(returns, rf: Series | float) -> float:
    v = _returns(returns)
    if len(v) < 2:
        raise ValueError("need at least two returns")
    ex = v - _daily_rf(rf, len(v))
    sd = float(np.std(ex, ddof=1))
    if sd == 0.0:
        raise ValueError("zero volatility of excess returns")
    return float(np.mean(ex)) * TRADING_DAYS_PER_YEAR / (sd * math.sqrt(TRADING_DAYS_PER_YEAR))


def drawdown_path(returns) -> np.ndarray:
    """Loss from the running wealth peak after each return, as positive
    fractions; the peak includes the starting wealth of 1."""
    w = wealth_path(returns)
    peak = np.maximum.accumulate(w)
    return 1.0 - w[1:] / peak[1:]


def max_drawdown(returns) -> float:
    """Largest peak-to-trough wealth loss, as a positive fraction."""
    return float(np.max(drawdown_path(returns)))


@record(frozen=True)
class TePolicyStats:
    level: float           # mean tracking error
    sigma_te: float        # dispersion of tracking error through time
    cyclicality: float | None  # correlation with the smoothed gauge; None if undefined


def te_policy_stats(te: Series, smoothed_vix: Series) -> TePolicyStats:
    """Level, dispersion, and gauge-correlation of a realized TE path.

    Cyclicality is undefined (None) when either input has zero variance;
    level and sigma are still returned.
    """
    if len(te) < 2:
        raise ValueError("need at least two tracking-error observations")
    g = smoothed_vix.restrict(te.calendar)
    x = te.values
    y = g.values
    level = float(np.mean(x))
    sigma = float(np.std(x, ddof=1))
    xd = x - np.mean(x)
    yd = y - np.mean(y)
    vx = float(np.dot(xd, xd))
    vy = float(np.dot(yd, yd))
    if vx == 0.0 or vy == 0.0:
        return TePolicyStats(level=level, sigma_te=sigma, cyclicality=None)
    cyc = float(np.dot(xd, yd) / math.sqrt(vx * vy))
    return TePolicyStats(level=level, sigma_te=sigma, cyclicality=cyc)


@record(frozen=True)
class MetricsReport:
    cagr: float
    vol: float
    sharpe: float
    max_drawdown: float
    cagr_over_maxdd: float | None
    te_level: float | None = None
    te_sigma: float | None = None
    te_cyclicality: float | None = None


def summarize(returns, rf: Series | float, te: Series | None = None,
              smoothed_vix: Series | None = None) -> MetricsReport:
    """One-row report; the TE columns are te_policy_stats of a realized-TE
    path against the smoothed gauge, filled when the path is given."""
    c = cagr(returns)
    dd = max_drawdown(returns)
    te_level = te_sigma = te_cyc = None
    if te is not None:
        ts = te_policy_stats(te, smoothed_vix)
        te_level, te_sigma, te_cyc = ts.level, ts.sigma_te, ts.cyclicality
    return MetricsReport(
        cagr=c,
        vol=annualized_vol(returns),
        sharpe=sharpe(returns, rf),
        max_drawdown=dd,
        cagr_over_maxdd=(c / dd) if dd > 0.0 else None,
        te_level=te_level,
        te_sigma=te_sigma,
        te_cyclicality=te_cyc,
    )
