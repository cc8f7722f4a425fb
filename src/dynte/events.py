"""Conditioning studies: forward returns by fear-gauge quintile and
crisis-trough regret accounting.

Forward returns are overlapping, so every t-statistic here uses a
Newey-West long-run variance with bandwidth equal to the forward horizon.
Every study returns its results as values; the command line lays out and
writes the tables.
"""

from __future__ import annotations

import datetime as dt
from typing import Sequence

import numpy as np

from ._record import record
from .inference import linear_quantiles, newey_west_mean_test
from .metrics import drawdown_path
from .simulate import _W_EQ, SimResult, fixed_mix
from .timeseries import (
    TRADING_DAYS_PER_YEAR,
    UNIT_LEVEL,
    UNIT_PRICE,
    Series,
    TradingCalendar,
)


def vix_quintiles(vix: Series) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints at the 20/40/60/80 linear-interpolation percentiles and a
    1..5 label per date. A value tied with a breakpoint takes the lower
    bucket, so a constant series lands entirely in bucket 1."""
    v = vix.values
    if len(v) < 5:
        raise ValueError("need at least five observations")
    bounds = linear_quantiles(v.copy(), [0.2, 0.4, 0.6, 0.8])
    return bounds, np.searchsorted(bounds, v, side="left") + 1


def forward_return(prices: Series, horizon: int) -> Series:
    """Return over the next `horizon` trading days, dated at the anchor day.

    Overlapping by construction; the last `horizon` dates emit no value.
    Annualized as (1 + cum)^(252/horizon) - 1.
    """
    if prices.unit != UNIT_PRICE:
        raise ValueError(f"need a price series, got unit {prices.unit!r}")
    n = len(prices)
    if horizon < 1 or horizon >= n:
        raise ValueError(f"horizon must be in [1, {n - 1}]")
    p = prices.values
    cum = p[horizon:] / p[:-horizon] - 1.0
    out = (1.0 + cum) ** (TRADING_DAYS_PER_YEAR / horizon) - 1.0
    return Series(TradingCalendar(prices.calendar.days[: n - horizon]), out, UNIT_LEVEL)


@record(frozen=True)
class QuintileReport:
    boundaries: np.ndarray
    horizons: tuple[int, ...]
    means: np.ndarray        # horizons x 5, annualized forward return means
    spreads: np.ndarray      # top minus bottom quintile, per horizon
    t_stats: np.ndarray      # Newey-West t per horizon (bandwidth = horizon)
    counts: np.ndarray       # horizons x 5 observation counts


def omega_table(vix: Series, prices: Series, horizons: Sequence[int]) -> QuintileReport:
    """Mean annualized forward return per fear-gauge quintile and horizon.

    The top-vs-bottom spread is tested with a Newey-West mean test on the
    indicator-weighted per-day series z_t = fwd_t * (N/n5 if q=5, -N/n1 if
    q=1, else 0), whose mean equals the quintile-mean spread; bandwidth
    equals the horizon.
    """
    if vix.calendar != prices.calendar:
        raise ValueError("gauge and price series are not on the same calendar")
    if len(horizons) == 0:
        raise ValueError("need at least one horizon")
    bounds, labels = vix_quintiles(vix)
    nh = len(horizons)
    means = np.empty((nh, 5))
    counts = np.empty((nh, 5), dtype=np.int64)
    spreads = np.empty(nh)
    tstats = np.empty(nh)
    for i, h in enumerate(horizons):
        if 2 * h >= len(prices):
            # the t-test's bandwidth h must stay below the len(prices) - h returns
            raise ValueError(f"horizon {h} needs more than {2 * h} prices, got {len(prices)}")
        fwd = forward_return(prices, h)
        N = len(fwd)
        lab = labels[:N]
        for k in range(1, 6):
            mask = lab == k
            counts[i, k - 1] = int(mask.sum())
            if counts[i, k - 1] == 0:
                raise ValueError(f"quintile {k} empty at horizon {h}")
            means[i, k - 1] = float(np.mean(fwd.values[mask]))
        spreads[i] = means[i, 4] - means[i, 0]
        w = np.zeros(N)
        w[lab == 5] = N / counts[i, 4]
        w[lab == 1] = -N / counts[i, 0]
        tstats[i] = newey_west_mean_test(fwd.values * w, bandwidth=h).t
    return QuintileReport(
        boundaries=bounds,
        horizons=tuple(int(h) for h in horizons),
        means=means,
        spreads=spreads,
        t_stats=tstats,
        counts=counts,
    )


@record(frozen=True)
class Trough:
    date: dt.date
    drawdown: float          # magnitude at the trough vs the running peak
    vix: float


def find_trough(benchmark: SimResult, window: tuple[dt.date, dt.date], vix: Series) -> Trough:
    """Deepest point of the wealth path inside [start, end], measured
    against the running peak since the start of the whole result. Ties take
    the earliest date; a window of rising wealth yields drawdown 0 at the
    window's first day."""
    start, end = window
    cal = benchmark.calendar
    dd = drawdown_path(benchmark.portfolio)    # dd[t] belongs to cal[t]
    i0, i1 = cal.span(start, end)
    if i1 <= i0:
        raise ValueError(f"no trading days in [{start}, {end}]")
    t = i0 + int(np.argmax(dd[i0:i1]))
    date = cal[t]
    return Trough(date=date, drawdown=float(dd[t]), vix=float(vix.at(date)))


@record(frozen=True)
class RegretEntry:
    """Cumulative returns from the day after a trough: staying in the
    aggressive mix versus de-risking into the mirrored mix, per horizon.
    Regret is stay minus de-risk, as a plain fraction."""

    name: str
    trough: Trough
    horizons: tuple[int, ...]
    stay: tuple[float | None, ...]      # None where the horizon runs past the sample
    derisk: tuple[float | None, ...]

    @property
    def regret(self) -> tuple[float | None, ...]:
        return tuple(None if s is None else s - d for s, d in zip(self.stay, self.derisk))


def _cum_mix(eq: Series, bd: Series, i0: int, h: int, w_eq: float) -> float:
    cal = TradingCalendar(eq.calendar.days[i0 : i0 + h])
    sub_eq = Series(cal, eq.values[i0 : i0 + h], eq.unit)
    sub_bd = Series(cal, bd.values[i0 : i0 + h], bd.unit)
    r = fixed_mix(sub_eq, sub_bd, w_eq).portfolio
    return float(np.prod(1.0 + r)) - 1.0


def regret_table(
    eq: Series,
    bd: Series,
    troughs: Sequence[tuple[str, Trough]],
    horizons: Sequence[int],
) -> tuple[RegretEntry, ...]:
    """Stay-vs-derisk outcomes from each trough. Both paths restart at
    their target weights on the day after the trough and rebalance monthly
    thereafter: staying holds the benchmark's 70/30 weights, and the
    de-risked path mirrors them. A horizon that runs
    past the end of the sample has no outcome (None)."""
    if eq.calendar != bd.calendar:
        raise ValueError("legs are not on the same calendar")
    out = []
    n = len(eq)
    for name, trough in troughs:
        i = eq.calendar.index(trough.date)
        stay: list[float | None] = []
        derisk: list[float | None] = []
        for h in horizons:
            fits = i + h <= n - 1
            stay.append(_cum_mix(eq, bd, i + 1, h, _W_EQ) if fits else None)
            derisk.append(_cum_mix(eq, bd, i + 1, h, 1.0 - _W_EQ) if fits else None)
        out.append(RegretEntry(
            name=name,
            trough=trough,
            horizons=tuple(int(h) for h in horizons),
            stay=tuple(stay),
            derisk=tuple(derisk),
        ))
    return tuple(out)
