"""Trailing-window statistics.

Every value dated t summarizes the window ending at t, so output calendars
are suffixes of input calendars; before a window can hold its full length,
the growing head window counts once it has min_periods observations. One
kernel, `_trailing`, evaluates every statistic from raw values, never
updated incrementally, so each output equals a from-scratch recomputation at
float precision. Correlations over a zero-variance window are NaN.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._record import record
from .timeseries import (
    TRADING_DAYS_PER_YEAR,
    UNIT_LEVEL,
    UNIT_RETURN,
    AssetPanel,
    Series,
    TradingCalendar,
)


@record(frozen=True)
class WindowSpec:
    """Trailing window: length in trading days, min_periods observations
    required before a value is emitted (defaults to the full length)."""

    length: int
    min_periods: int | None = None

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("window length must be >= 1")
        mp = self.length if self.min_periods is None else self.min_periods
        if not 1 <= mp <= self.length:
            raise ValueError("min_periods must satisfy 1 <= min_periods <= length")
        object.__setattr__(self, "min_periods", mp)


# floats of one column's full windows evaluated at a time: a statistic's
# buffers are a few arrays of this size per column, whatever the length, and
# each stays under 120 KB, below glibc's default 128 KiB mmap threshold, so it
# is reused from the heap rather than mapped and page-faulted anew each chunk
_CHUNK_FLOATS = 15_000


def _trailing(cal: TradingCalendar, cols: list[np.ndarray], w: WindowSpec,
              floor: int, stat, unit: str) -> Series:
    """stat of each trailing window of `cols` (arrays on `cal`), from the
    first date with max(min_periods, floor) observations. stat reduces the
    last axis: it gets each growing head window, shorter than w.length, as a
    1-D prefix, and the full windows as sliding_window_view rows, as many at
    a time as fit in _CHUNK_FLOATS per column."""
    mp = max(w.min_periods, floor)
    if w.length < floor:
        # e.g. a sample std over a one-point window: nothing can be emitted
        raise ValueError(
            f"window of length {w.length} never holds the {floor} observations"
            " this statistic needs, so no value can be emitted"
        )
    n, L = len(cal), w.length
    if n < mp:
        raise ValueError(f"series of length {n} shorter than min_periods {mp}")
    out = np.empty(n - mp + 1)
    for j in range(mp - 1, min(L - 1, n)):
        out[j - (mp - 1)] = stat(*(c[: j + 1] for c in cols))
    if n >= L:
        views = [sliding_window_view(c, L) for c in cols]
        rows = max(1, _CHUNK_FLOATS // L)
        for a in range(0, n - L + 1, rows):
            out[L - mp + a : L - mp + a + rows] = stat(*(v[a : a + rows] for v in views))
    return Series(cal.suffix(mp - 1), out, unit)


def moving_average(s: Series, w: WindowSpec) -> Series:
    """Trailing mean; first value once min_periods observations exist."""
    return _trailing(s.calendar, [s.values], w, 1, lambda x: x.mean(axis=-1), s.unit)


def rolling_vol(r: Series, w: WindowSpec) -> Series:
    """Annualized trailing sample standard deviation of daily returns."""
    if r.unit != UNIT_RETURN:
        raise ValueError(f"need a return series, got unit {r.unit!r}")
    annualize = np.sqrt(TRADING_DAYS_PER_YEAR)
    # a sample std needs two points
    return _trailing(r.calendar, [r.values], w, 2,
                     lambda x: np.std(x, axis=-1, ddof=1) * annualize, UNIT_LEVEL)


def _demean(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each window (along the last axis) less its mean, and its sum of squares."""
    xd = x - x.mean(axis=-1, keepdims=True)
    return xd, np.einsum("...j,...j->...", xd, xd)


def _correlate(xd: np.ndarray, va: np.ndarray, yd: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Pearson correlation of demeaned windows; NaN where either has no variance."""
    cov = np.einsum("...j,...j->...", xd, yd)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where((va == 0.0) | (vb == 0.0), np.nan, cov / np.sqrt(va * vb))


def rolling_corr(a: Series, b: Series, w: WindowSpec) -> Series:
    """Trailing Pearson correlation of two aligned series."""
    if a.calendar != b.calendar:
        raise ValueError("series are not on the same calendar")
    return _trailing(a.calendar, [a.values, b.values], w, 2,
                     lambda x, y: _correlate(*_demean(x), *_demean(y)), UNIT_LEVEL)


def rolling_avg_pairwise_corr(panel: AssetPanel, w: WindowSpec) -> Series:
    """Mean of all pairwise trailing correlations across the panel's symbols.

    A date where any pair is undefined (zero variance) carries NaN. Each
    symbol's windows are demeaned once, not once per pair.
    """
    syms = panel.symbols
    if len(syms) < 2:
        raise ValueError("need at least two symbols for pairwise correlation")
    pairs = list(combinations(range(len(syms)), 2))

    def mean_corr(*cols):
        parts = [_demean(c) for c in cols]
        acc = None
        for i, j in pairs:
            c = _correlate(*parts[i], *parts[j])
            acc = c if acc is None else acc + c
        return acc / len(pairs)

    return _trailing(panel.calendar, [panel[s].values for s in syms], w, 2,
                     mean_corr, UNIT_LEVEL)
