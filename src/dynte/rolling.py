"""Trailing-window statistics.

A window is a number of trading days, and every window is full: the value
dated t summarizes the `window` observations ending at t, so the first value
is dated at the window's last day and output calendars are suffixes of input
calendars. One kernel, `_trailing`, evaluates every statistic from raw
values, never updated incrementally, so each output equals a from-scratch
recomputation at float precision. Correlations over a zero-variance window
are NaN.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .timeseries import (
    TRADING_DAYS_PER_YEAR,
    UNIT_LEVEL,
    UNIT_RETURN,
    AssetPanel,
    Series,
    TradingCalendar,
)


# floats of one column's full windows evaluated at a time: a statistic's
# buffers are a few arrays of this size per column, whatever the length, and
# each stays under 120 KB, below glibc's default 128 KiB mmap threshold, so it
# is reused from the heap rather than mapped and page-faulted anew each chunk
# (rolling_avg_pairwise_corr stacks its columns' buffers into one array)
_CHUNK_FLOATS = 15_000


def _trailing(cal: TradingCalendar, cols: list[np.ndarray], L: int,
              floor: int, stat, unit: str) -> Series:
    """stat of each full L-day window of `cols` (arrays on `cal`), from the
    window's last day on. stat reduces the last axis of sliding_window_view
    rows, as many at a time as fit in _CHUNK_FLOATS per column; `floor` is
    the fewest observations it needs."""
    if L < floor:
        # e.g. a sample std over a one-point window: nothing can be emitted
        raise ValueError(
            f"window of length {L} never holds the {floor} observations"
            " this statistic needs, so no value can be emitted"
        )
    n = len(cal)
    if n < L:
        raise ValueError(f"series of length {n} shorter than the {L}-day window")
    out = np.empty(n - L + 1)
    views = [sliding_window_view(c, L) for c in cols]
    rows = max(1, _CHUNK_FLOATS // L)
    for a in range(0, n - L + 1, rows):
        out[a : a + rows] = stat(*(v[a : a + rows] for v in views))
    return Series(cal.suffix(L - 1), out, unit)


def moving_average(s: Series, w: int) -> Series:
    """Trailing mean over w days."""
    return _trailing(s.calendar, [s.values], w, 1, lambda x: x.mean(axis=-1), s.unit)


def rolling_vol(r: Series, w: int) -> Series:
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


def rolling_corr(a: Series, b: Series, w: int) -> Series:
    """Trailing Pearson correlation of two aligned series."""
    if a.calendar != b.calendar:
        raise ValueError("series are not on the same calendar")
    return _trailing(a.calendar, [a.values, b.values], w, 2,
                     lambda x, y: _correlate(*_demean(x), *_demean(y)), UNIT_LEVEL)


def rolling_avg_pairwise_corr(panel: AssetPanel, w: int) -> Series:
    """Mean of all pairwise trailing correlations across the panel's symbols.

    A date where any pair is undefined (zero variance) carries NaN. The
    symbols' windows are stacked and demeaned once, each symbol is
    correlated with all later ones in one pass, and the pairs are summed in
    (i, j) order, i < j.
    """
    syms = panel.symbols
    if len(syms) < 2:
        raise ValueError("need at least two symbols for pairwise correlation")

    def mean_corr(*cols):
        xd, ss = _demean(np.stack(cols))
        acc = None
        for i in range(len(cols) - 1):
            for c in _correlate(xd[i], ss[i], xd[i + 1:], ss[i + 1:]):
                acc = c if acc is None else acc + c
        return acc / (len(cols) * (len(cols) - 1) // 2)

    return _trailing(panel.calendar, [panel[s].values for s in syms], w, 2,
                     mean_corr, UNIT_LEVEL)
