"""Conditioning studies: forward returns by fear-gauge quintile,
crisis-trough regret accounting, and the signal-window sweep.

Forward returns are overlapping, so every t-statistic here uses a
Newey-West long-run variance with bandwidth equal to the forward horizon.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .inference import newey_west_mean_test
from .metrics import cagr, drawdown_path, max_drawdown, sharpe
from .regime import RegimeThresholds, classify, percentile_thresholds
from .rolling import WindowSpec, moving_average
from .simulate import (
    OverlayPolicy,
    SimResult,
    benchmark_7030,
    fixed_mix,
    simulate_overlay,
)
from .timeseries import (
    TRADING_DAYS_PER_YEAR,
    UNIT_LEVEL,
    UNIT_PRICE,
    Series,
    TradingCalendar,
)

DEFAULT_OMEGA_HORIZONS = (21, 42, 63, 126, 252)
DEFAULT_REGRET_HORIZONS = (63, 126, 252)
DEFAULT_SWEEP_WINDOWS = (1, 5, 21, 63)


@dataclass(frozen=True)
class QuintileAssignment:
    """Breakpoints at the 20/40/60/80 linear-interpolation percentiles and a
    1..5 label per date. A value tied with a breakpoint takes the lower
    bucket, so a constant series lands entirely in bucket 1."""

    calendar: TradingCalendar
    boundaries: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.float64)
        l = np.asarray(self.labels, dtype=np.int64)
        if b.shape != (4,):
            raise ValueError("need exactly four quintile boundaries")
        if len(l) != len(self.calendar):
            raise ValueError("labels length must match the calendar")
        b.setflags(write=False)
        l.setflags(write=False)
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "labels", l)


def vix_quintiles(vix: Series) -> QuintileAssignment:
    v = vix.values
    if len(v) < 5:
        raise ValueError("need at least five observations")
    bounds = np.quantile(v, [0.2, 0.4, 0.6, 0.8])
    labels = np.searchsorted(bounds, v, side="left") + 1
    return QuintileAssignment(vix.calendar, bounds, labels)


def forward_return(prices: Series, horizon: int, annualize: bool = True) -> Series:
    """Return over the next `horizon` trading days, dated at the anchor day.

    Overlapping by construction; the last `horizon` dates emit no value.
    Annualized as (1 + cum)^(252/horizon) - 1 unless annualize is False.
    """
    if prices.unit != UNIT_PRICE:
        raise ValueError(f"need a price series, got unit {prices.unit!r}")
    n = len(prices)
    if horizon < 1 or horizon >= n:
        raise ValueError(f"horizon must be in [1, {n - 1}]")
    p = prices.values
    cum = p[horizon:] / p[:-horizon] - 1.0
    out = (1.0 + cum) ** (TRADING_DAYS_PER_YEAR / horizon) - 1.0 if annualize else cum
    return Series(TradingCalendar(prices.calendar.dates[: n - horizon]), out, UNIT_LEVEL)


@dataclass(frozen=True)
class QuintileReport:
    boundaries: np.ndarray
    horizons: tuple[int, ...]
    means: np.ndarray        # horizons x 5, annualized forward return means
    spreads: np.ndarray      # top minus bottom quintile, per horizon
    t_stats: np.ndarray      # Newey-West t per horizon (bandwidth = horizon)
    counts: np.ndarray       # horizons x 5 observation counts

    CSV_HEADER = (
        ["horizon_days"]
        + [f"q{k}" for k in range(1, 6)]
        + ["spread_q5_q1", "nw_t"]
        + [f"n_q{k}" for k in range(1, 6)]
        + [f"boundary_{p}" for p in (20, 40, 60, 80)]
    )

    def csv_rows(self) -> list[list]:
        return [
            [h, *self.means[i], self.spreads[i], self.t_stats[i],
             *self.counts[i], *self.boundaries]
            for i, h in enumerate(self.horizons)
        ]


def omega_table(
    vix: Series, prices: Series, horizons: Sequence[int] = DEFAULT_OMEGA_HORIZONS
) -> QuintileReport:
    """Mean annualized forward return per fear-gauge quintile and horizon.

    The top-vs-bottom spread is tested with a Newey-West mean test on the
    indicator-weighted per-day series z_t = fwd_t * (N/n5 if q=5, -N/n1 if
    q=1, else 0), whose mean equals the quintile-mean spread; bandwidth
    equals the horizon.
    """
    if vix.calendar.dates != prices.calendar.dates:
        raise ValueError("gauge and price series are not on the same calendar")
    if len(horizons) == 0:
        raise ValueError("need at least one horizon")
    q = vix_quintiles(vix)
    nh = len(horizons)
    means = np.empty((nh, 5))
    counts = np.empty((nh, 5), dtype=np.int64)
    spreads = np.empty(nh)
    tstats = np.empty(nh)
    for i, h in enumerate(horizons):
        fwd = forward_return(prices, h)
        N = len(fwd)
        lab = q.labels[:N]
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
        boundaries=q.boundaries,
        horizons=tuple(int(h) for h in horizons),
        means=means,
        spreads=spreads,
        t_stats=tstats,
        counts=counts,
    )


@dataclass(frozen=True)
class Trough:
    date: dt.date
    drawdown: float          # magnitude at the trough vs the running peak
    vix: float | None


def find_trough(
    benchmark: SimResult,
    window: tuple[dt.date, dt.date],
    vix: Series | None = None,
) -> Trough:
    """Deepest point of the wealth path inside [start, end], measured
    against the running peak since the start of the whole result. Ties take
    the earliest date; a window of rising wealth yields drawdown 0 at the
    window's first day."""
    start, end = window
    cal = benchmark.calendar
    dd = drawdown_path(benchmark.portfolio)    # dd[t] belongs to cal[t]
    idx = [i for i, d in enumerate(cal.dates) if start <= d <= end]
    if not idx:
        raise ValueError(f"no trading days in [{start}, {end}]")
    sl = dd[idx[0] : idx[-1] + 1]
    t = idx[0] + int(np.argmax(sl))
    date = cal.dates[t]
    return Trough(
        date=date,
        drawdown=float(dd[t]),
        vix=float(vix.at(date)) if vix is not None else None,
    )


@dataclass(frozen=True)
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

    CSV_HEADER = ["crisis", "trough_date", "max_drawdown", "vix_at_trough",
                  "horizon_days", "stay_70_30", "derisk_30_70", "regret"]

    def csv_rows(self) -> list[list]:
        t = self.trough
        return [[self.name, t.date.isoformat(), t.drawdown, t.vix, h, s, d, r]
                for h, s, d, r in zip(self.horizons, self.stay, self.derisk, self.regret)]


def _cum_mix(eq: Series, bd: Series, i0: int, h: int, w_eq: float) -> float:
    cal = TradingCalendar(eq.calendar.dates[i0 : i0 + h])
    sub_eq = Series(cal, eq.values[i0 : i0 + h], eq.unit)
    sub_bd = Series(cal, bd.values[i0 : i0 + h], bd.unit)
    r = fixed_mix(sub_eq, sub_bd, w_eq).portfolio
    return float(np.prod(1.0 + r)) - 1.0


def regret_table(
    eq: Series,
    bd: Series,
    troughs: Sequence[tuple[str, Trough]],
    horizons: Sequence[int] = DEFAULT_REGRET_HORIZONS,
    w_eq: float = 0.70,
) -> tuple[RegretEntry, ...]:
    """Stay-vs-derisk outcomes from each trough. Both paths restart at
    their target weights on the day after the trough and rebalance monthly
    thereafter; the de-risked path mirrors the weights. A horizon that runs
    past the end of the sample has no outcome (None)."""
    if eq.calendar.dates != bd.calendar.dates:
        raise ValueError("legs are not on the same calendar")
    out = []
    n = len(eq)
    for name, trough in troughs:
        i = eq.calendar.index(trough.date)
        stay: list[float | None] = []
        derisk: list[float | None] = []
        for h in horizons:
            fits = i + h <= n - 1
            stay.append(_cum_mix(eq, bd, i + 1, h, w_eq) if fits else None)
            derisk.append(_cum_mix(eq, bd, i + 1, h, 1.0 - w_eq) if fits else None)
        out.append(RegretEntry(
            name=name,
            trough=trough,
            horizons=tuple(int(h) for h in horizons),
            stay=tuple(stay),
            derisk=tuple(derisk),
        ))
    return tuple(out)


@dataclass(frozen=True)
class SweepRow:
    window: int
    thresholds: RegimeThresholds
    cagr: float
    sharpe: float
    max_drawdown: float
    cagr_over_maxdd: float
    excess_cagr: float        # dynamic minus static CAGR
    passes_sharpe: bool
    passes_calmar: bool

    @property
    def passes_both(self) -> bool:
        return self.passes_sharpe and self.passes_calmar


@dataclass(frozen=True)
class SweepReport:
    static_cagr: float
    static_sharpe: float
    static_cagr_over_maxdd: float
    rows: tuple[SweepRow, ...]

    CSV_HEADER = ["window", "threshold_low", "threshold_high", "cagr", "sharpe",
                  "cagr_over_maxdd", "excess_cagr", "static_cagr", "static_sharpe",
                  "static_cagr_over_maxdd", "passes_sharpe", "passes_calmar",
                  "passes_both"]

    def csv_rows(self) -> list[list]:
        return [
            [r.window, r.thresholds.low, r.thresholds.high, r.cagr, r.sharpe,
             r.cagr_over_maxdd, r.excess_cagr, self.static_cagr, self.static_sharpe,
             self.static_cagr_over_maxdd, r.passes_sharpe, r.passes_calmar,
             r.passes_both]
            for r in self.rows
        ]


def window_sweep(
    vix: Series,
    eq: Series,
    bd: Series,
    spread: Series,
    windows: Sequence[int] = DEFAULT_SWEEP_WINDOWS,
    percentiles: tuple[float, float] = (0.16, 0.76),
    dynamic: OverlayPolicy | None = None,
    static: OverlayPolicy | None = None,
    vol_window: WindowSpec = WindowSpec(63),
    rf=0.0,
) -> SweepReport:
    """Re-run the dynamic overlay with the signal smoothed over each window,
    thresholds re-fit at the same percentiles of each smoothed distribution,
    against one shared static run."""
    if len(windows) == 0:
        raise ValueError("need at least one window")
    dynamic = dynamic or OverlayPolicy.dynamic()
    static = static or OverlayPolicy.static()
    bench = benchmark_7030(eq, bd)
    s_res = simulate_overlay(bench, spread, None, static, vol_window)
    s_cagr = cagr(s_res.portfolio)
    s_sharpe = sharpe(s_res.portfolio, rf)
    s_dd = max_drawdown(s_res.portfolio)
    s_calmar = s_cagr / s_dd if s_dd > 0 else math.inf

    rows = []
    for w in windows:
        sm = moving_average(vix, WindowSpec(int(w)))
        th = percentile_thresholds(sm, percentiles[0], percentiles[1])
        path = classify(vix, WindowSpec(int(w)), th)
        res = simulate_overlay(bench, spread, path, dynamic, vol_window)
        c = cagr(res.portfolio)
        sh = sharpe(res.portfolio, rf)
        dd = max_drawdown(res.portfolio)
        calmar = c / dd if dd > 0 else math.inf
        rows.append(SweepRow(
            window=int(w),
            thresholds=th,
            cagr=c,
            sharpe=sh,
            max_drawdown=dd,
            cagr_over_maxdd=calmar,
            excess_cagr=c - s_cagr,
            passes_sharpe=sh >= s_sharpe,
            passes_calmar=calmar >= s_calmar,
        ))
    return SweepReport(
        static_cagr=s_cagr,
        static_sharpe=s_sharpe,
        static_cagr_over_maxdd=s_calmar,
        rows=tuple(rows),
    )
