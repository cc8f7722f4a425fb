"""Trailing-window statistics.

Every value dated t summarizes the window ending at t, so output calendars
are suffixes of input calendars. Windows are recomputed from raw values,
never updated incrementally; this keeps each output equal to a from-scratch
recomputation at float precision. Correlations over a zero-variance window
are undefined and carried as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .timeseries import (
    TRADING_DAYS_PER_YEAR,
    UNIT_LEVEL,
    UNIT_RETURN,
    AssetPanel,
    Series,
)


@dataclass(frozen=True)
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


def _check_nonempty(s: Series, w: WindowSpec, floor: int) -> int:
    mp = max(w.min_periods, floor)
    if w.length < floor:
        # e.g. a sample std over a one-point window: nothing can be emitted
        raise ValueError(
            f"window of length {w.length} never holds the {floor} observations"
            " this statistic needs, so no value can be emitted"
        )
    if len(s) < mp:
        raise ValueError(
            f"series of length {len(s)} shorter than min_periods {mp}"
        )
    return mp


def moving_average(s: Series, w: WindowSpec) -> Series:
    """Trailing mean; first value once min_periods observations exist."""
    mp = _check_nonempty(s, w, 1)
    vals = s.values
    n, L = len(vals), w.length
    out = np.empty(n - mp + 1)
    # growing head windows while fewer than L observations are available
    for j in range(mp - 1, min(L - 1, n - 1) + 1):
        out[j - (mp - 1)] = np.mean(vals[: j + 1])
    if n >= L:
        full = sliding_window_view(vals, L).mean(axis=1)
        out[L - mp :] = full
    return Series(s.calendar.suffix(mp - 1), out, s.unit)


def rolling_vol(r: Series, w: WindowSpec) -> Series:
    """Annualized trailing sample standard deviation of daily returns."""
    if r.unit != UNIT_RETURN:
        raise ValueError(f"need a return series, got unit {r.unit!r}")
    mp = _check_nonempty(r, w, 2)  # sample std needs two points
    vals = r.values
    n, L = len(vals), w.length
    out = np.empty(n - mp + 1)
    for j in range(mp - 1, min(L - 1, n - 1) + 1):
        out[j - (mp - 1)] = np.std(vals[: j + 1], ddof=1)
    if n >= L:
        out[L - mp :] = np.std(sliding_window_view(vals, L), axis=1, ddof=1)
    out *= np.sqrt(TRADING_DAYS_PER_YEAR)
    return Series(r.calendar.suffix(mp - 1), out, UNIT_LEVEL)


# full windows demeaned at a time in rolling_avg_pairwise_corr, which bounds
# its memory at symbols x _CHUNK_ROWS x window length floats
_CHUNK_ROWS = 512


def _window_corr(a: np.ndarray, b: np.ndarray) -> float:
    am = a - np.mean(a)
    bm = b - np.mean(b)
    va = np.dot(am, am)
    vb = np.dot(bm, bm)
    if va == 0.0 or vb == 0.0:
        return np.nan
    return float(np.dot(am, bm) / np.sqrt(va * vb))


def _head_corr(x: np.ndarray, y: np.ndarray, mp: int, L: int) -> np.ndarray:
    """The output array, filled for the growing head windows, which hold
    fewer than L observations; the full windows are the caller's."""
    n = len(x)
    out = np.empty(n - mp + 1)
    for j in range(mp - 1, min(L - 1, n - 1) + 1):
        out[j - (mp - 1)] = _window_corr(x[: j + 1], y[: j + 1])
    return out


def _demeaned_windows(x: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Each full trailing window of x less its mean, and its sum of squares."""
    xw = sliding_window_view(x, L)
    xd = xw - xw.mean(axis=1, keepdims=True)
    return xd, np.einsum("ij,ij->i", xd, xd)


def _full_corr(xd: np.ndarray, va: np.ndarray, yd: np.ndarray, vb: np.ndarray) -> np.ndarray:
    cov = np.einsum("ij,ij->i", xd, yd)
    with np.errstate(invalid="ignore", divide="ignore"):
        full = cov / np.sqrt(va * vb)
    full[(va == 0.0) | (vb == 0.0)] = np.nan
    return full


def rolling_corr(a: Series, b: Series, w: WindowSpec) -> Series:
    """Trailing Pearson correlation of two aligned series."""
    if a.calendar != b.calendar:
        raise ValueError("series are not on the same calendar")
    mp = _check_nonempty(a, w, 2)
    x, y = a.values, b.values
    L = w.length
    out = _head_corr(x, y, mp, L)
    if len(x) >= L:
        out[L - mp :] = _full_corr(*_demeaned_windows(x, L), *_demeaned_windows(y, L))
    return Series(a.calendar.suffix(mp - 1), out, UNIT_LEVEL)


def rolling_avg_pairwise_corr(panel: AssetPanel, w: WindowSpec) -> Series:
    """Mean of all pairwise trailing correlations across the panel's symbols.

    A date where any pair is undefined (zero variance) carries NaN. Each
    symbol's windows are demeaned once, not once per pair.
    """
    syms = panel.symbols
    if len(syms) < 2:
        raise ValueError("need at least two symbols for pairwise correlation")
    mp = _check_nonempty(panel[syms[0]], w, 2)
    vals = [panel[s].values for s in syms]
    n, L = len(panel.calendar), w.length
    pairs = list(combinations(range(len(syms)), 2))
    full = np.empty((len(pairs), max(n - L + 1, 0)))
    for a in range(0, full.shape[1], _CHUNK_ROWS):
        parts = [_demeaned_windows(v[a : a + _CHUNK_ROWS + L - 1], L) for v in vals]
        for k, (i, j) in enumerate(pairs):
            full[k, a : a + _CHUNK_ROWS] = _full_corr(*parts[i], *parts[j])
    acc = None
    for k, (i, j) in enumerate(pairs):
        c = _head_corr(vals[i], vals[j], mp, L)
        c[L - mp :] = full[k]
        acc = c if acc is None else acc + c
    return Series(panel.calendar.suffix(mp - 1), acc / len(pairs), UNIT_LEVEL)
