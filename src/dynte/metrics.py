"""Performance and tracking-error summaries for daily return paths.

Conventions: 252 trading days per year; CAGR compounds the full path and
annualizes by exponent 252/n; volatility is the sample standard deviation
scaled by sqrt(252); Sharpe divides the annualized mean excess return by
the annualized volatility of excess returns. The risk-free rate is an
annual rate, a scalar or a Series on the returns' dates, and
`excess_returns` alone applies it, as rf/252 a day. Max drawdown is reported
as a magnitude in [0, 1], measured against a running peak that includes
the starting wealth of 1. `summarize` is the one performance summary of a
run, tracking-error statistics included; it returns a MetricsReport, and
callers lay out their own tables.
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


def excess_returns(returns, rf: Series | float) -> np.ndarray:
    """Daily returns less rf/252: rf is an annual rate, a scalar or a
    Series on the returns' dates."""
    v = _returns(returns)
    if isinstance(rf, Series):
        if len(rf) != len(v):
            raise ValueError("risk-free series length mismatch")
        return v - rf.values / TRADING_DAYS_PER_YEAR
    return v - float(rf) / TRADING_DAYS_PER_YEAR


def sharpe(returns, rf: Series | float) -> float:
    ex = excess_returns(returns, rf)
    if len(ex) < 2:
        raise ValueError("need at least two returns")
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


@record
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
    """One-row report. Given a realized-TE path of at least two values, the
    TE columns are its level (mean), its dispersion through time (sample
    standard deviation) and its cyclicality: its correlation with the
    smoothed gauge on the path's dates, None when either has zero variance."""
    if te is not None and smoothed_vix is None:
        raise ValueError("smoothed_vix is required with a tracking-error path")
    c = cagr(returns)
    dd = max_drawdown(returns)
    te_level = te_sigma = te_cyc = None
    if te is not None:
        if len(te) < 2:
            raise ValueError("need at least two tracking-error observations")
        x = te.values
        y = smoothed_vix.restrict(te.calendar).values
        te_level = float(np.mean(x))
        te_sigma = float(np.std(x, ddof=1))
        xd = x - np.mean(x)
        yd = y - np.mean(y)
        vx = float(np.dot(xd, xd))
        vy = float(np.dot(yd, yd))
        if vx != 0.0 and vy != 0.0:
            te_cyc = float(np.dot(xd, yd) / math.sqrt(vx * vy))
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
