"""Benchmark construction and the risk-budgeted overlay simulator.

The benchmark is a two-asset mix rebalanced to fixed weights on the first
trading day of each month and left to drift in between. The overlay scales
a long/short spread by a daily active weight theta sized to hit a
tracking-error target: theta_t = min(target / vol, theta_cap), where vol is
the trailing spread volatility over a window ending the day before, and
the target is chosen by the previous day's regime label, optionally capped
by a hard tracking-error ceiling. No decision uses same-day or future
information; the first vol_window.length days are a warm-up with theta 0.
The trailing vol, sizing_vol, is computed once and passed to every overlay
sized on it.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from .regime import RegimePath
from .rolling import WindowSpec, rolling_vol
from .timeseries import UNIT_RETURN, Series, TradingCalendar

# the benchmark's equity weight; the regret study's de-risked mix mirrors it
_W_EQ = 0.70


@record(frozen=True)
class OverlayPolicy:
    """Tracking-error targets per regime label, in annualized fraction terms.

    A policy with three equal targets is static: it never consults the
    regime label. te_ceiling, set by with_ceiling, clips every target before
    sizing.
    """

    target_low: float
    target_neutral: float
    target_high: float
    theta_cap: float
    te_ceiling: float | None = None

    def __post_init__(self):
        for name in ("target_low", "target_neutral", "target_high"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.theta_cap <= 0.0:
            raise ValueError("theta_cap must be positive")
        if self.te_ceiling is not None and self.te_ceiling <= 0.0:
            raise ValueError("te_ceiling must be positive when set")

    @property
    def is_static(self) -> bool:
        return self.target_low == self.target_neutral == self.target_high

    def with_ceiling(self, ceiling: float | None) -> "OverlayPolicy":
        return OverlayPolicy(self.target_low, self.target_neutral,
                             self.target_high, self.theta_cap, ceiling)

    def effective_targets(self) -> tuple[float, float, float]:
        t = (self.target_low, self.target_neutral, self.target_high)
        if self.te_ceiling is None:
            return t
        return tuple(min(x, self.te_ceiling) for x in t)  # type: ignore[return-value]


@record(frozen=True)
class SimResult:
    """Daily simulation output. portfolio - benchmark == theta * spread by
    construction; te is the realized tracking-error path over the active
    period (None for a benchmark-only result, or where the active period
    gives it fewer than two values)."""

    calendar: TradingCalendar
    portfolio: np.ndarray
    benchmark: np.ndarray
    theta: np.ndarray
    te: Series | None
    first_active: int

    def __post_init__(self):
        n = len(self.calendar)
        for name in ("portfolio", "benchmark", "theta"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if len(arr) != n:
                raise ValueError(f"{name} length must match the calendar")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def fixed_mix(eq: Series, bd: Series, w_eq: float) -> SimResult:
    """Two-asset portfolio reset to (w_eq, 1 - w_eq) on the first trading
    day of each month; weights drift with relative performance in between."""
    if eq.calendar != bd.calendar:
        raise ValueError("legs are not on the same calendar")
    if eq.unit != UNIT_RETURN or bd.unit != UNIT_RETURN:
        raise ValueError("legs must be return series")
    if not 0.0 <= w_eq <= 1.0:
        raise ValueError("w_eq must be in [0, 1]")
    months = eq.calendar.days.astype("datetime64[M]")
    month_start = np.r_[True, months[1:] != months[:-1]].tolist()
    re, rb = eq.values, bd.values
    n = len(months)
    out = np.empty(n)
    w = w_eq
    for t in range(n):
        if month_start[t]:
            w = w_eq
        r = w * re[t] + (1.0 - w) * rb[t]
        out[t] = r
        w = w * (1.0 + re[t]) / (1.0 + r)
    return SimResult(
        calendar=eq.calendar,
        portfolio=out,
        benchmark=out,
        theta=np.zeros(n),
        te=None,
        first_active=0,
    )


def benchmark_7030(eq: Series, bd: Series) -> SimResult:
    return fixed_mix(eq, bd, _W_EQ)


def _decision_labels(regimes: RegimePath, cal: TradingCalendar,
                     start: int, stop: int) -> np.ndarray:
    """Labels at cal[start:stop], verified to line up date-for-date."""
    need = cal.days[start:stop]
    pcal = regimes.signal.calendar
    k0 = pcal.index(need[0])
    k1 = k0 + len(need)
    if not np.array_equal(pcal.days[k0:k1], need):
        raise ValueError("regime path is not aligned with the simulation calendar")
    return regimes.labels[k0:k1]


def sizing_vol(spread: Series, vol_window: WindowSpec) -> Series:
    """The overlay's sizing volatility: the spread's trailing vol over full
    windows of vol_window.length days, the value dated cal[L-1+k] covering
    returns k..k+L-1. It depends on no policy, so a run computes it once for
    all its overlays."""
    if spread.unit != UNIT_RETURN:
        raise ValueError("spread must be a return series")
    L = vol_window.length
    if len(spread) <= L:
        raise ValueError(f"need more than {L} days for the volatility warm-up")
    return rolling_vol(spread, WindowSpec(L))


def simulate_overlay(
    benchmark: SimResult,
    spread: Series,
    vol: Series,
    regimes: RegimePath | None,
    policy: OverlayPolicy,
    vol_window: WindowSpec,
) -> SimResult:
    """Overlay the spread on a benchmark path under a sizing policy.

    `vol` is sizing_vol(spread, vol_window); the decision on each day reads
    its value ending one day before, and a zero estimate sends theta to the
    cap. A static policy ignores `regimes` (None is accepted); a dynamic
    policy requires labels covering every decision date.
    """
    cal = benchmark.calendar
    if spread.calendar != cal:
        raise ValueError("spread is not on the benchmark calendar")
    if spread.unit != UNIT_RETURN:
        raise ValueError("spread must be a return series")
    n = len(cal)
    L = vol_window.length
    if n <= L:
        raise ValueError(f"need more than {L} days for the volatility warm-up")
    if vol.calendar != cal.suffix(L - 1):
        raise ValueError(f"vol is not the spread's {L}-day trailing vol on its calendar")
    m = n - L  # number of active days

    targets = np.array(policy.effective_targets())
    if policy.is_static:
        target = np.full(m, targets[1])
    else:
        if regimes is None:
            raise ValueError("dynamic policy needs a regime path")
        # labels -1, 0, 1 (Low, Neutral, High) index the targets
        target = targets[_decision_labels(regimes, cal, L - 1, n - 1) + 1]

    lagged_vol = vol.values[:m]
    theta = np.zeros(n)
    with np.errstate(divide="ignore"):
        raw = target / lagged_vol
    theta[L:] = np.where(lagged_vol == 0.0, policy.theta_cap,
                         np.minimum(raw, policy.theta_cap))

    portfolio = benchmark.portfolio + theta * spread.values
    active = Series(cal.suffix(L), theta[L:] * spread.values[L:], UNIT_RETURN)
    te = rolling_vol(active, vol_window) if len(active) > max(vol_window.min_periods, 2) else None
    return SimResult(
        calendar=cal,
        portfolio=portfolio,
        benchmark=benchmark.portfolio,
        theta=theta,
        te=te,
        first_active=L,
    )
