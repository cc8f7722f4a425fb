"""Serial-correlation-robust inference.

Long-run variances use the Bartlett kernel with weight 1 - j/(L+1) at lag j
(Newey-West), scaled by n/(n-1), so bandwidth 0 reproduces the classical
one-sample t. The circular block bootstrap follows Politis-Romano:
fixed-length blocks with wraparound, percentile intervals.
For the Sharpe ratio a resample is reduced from its blocks' sums of x and
x**2, read off prefix sums of the demeaned series, so it costs O(n/block)
rather than O(n); other statistics gather each resample's values. Draws are
processed in fixed-size chunks, so memory does not grow with the number of
iterations.
Sharpe equality uses the Jobson-Korkie statistic with Memmel's variance
correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .timeseries import TRADING_DAYS_PER_YEAR, Series


def _values(x) -> np.ndarray:
    if isinstance(x, Series):
        return np.asarray(x.values, dtype=np.float64)
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional sample")
    return arr


@dataclass(frozen=True)
class MeanTest:
    mean: float
    se: float
    t: float
    bandwidth: int
    n: int


def newey_west_mean_test(x, bandwidth: int) -> MeanTest:
    """t-test of zero mean with a Bartlett long-run variance at the given lag
    truncation. bandwidth 0 degenerates to the classical one-sample t."""
    v = _values(x)
    n = len(v)
    if bandwidth < 0:
        raise ValueError("bandwidth must be >= 0")
    if n < 2:
        raise ValueError("need at least two observations")
    if bandwidth >= n:
        raise ValueError(f"bandwidth {bandwidth} must be < n ({n})")
    if np.min(v) == np.max(v):
        # exact check: demeaning a non-dyadic constant leaves float dust
        raise ValueError("long-run variance is not positive (constant series)")
    m = float(np.mean(v))
    e = v - m
    gamma0 = float(np.dot(e, e)) / n
    lrv = gamma0
    for j in range(1, bandwidth + 1):
        w = 1.0 - j / (bandwidth + 1.0)
        lrv += 2.0 * w * float(np.dot(e[j:], e[:-j])) / n
    lrv *= n / (n - 1.0)
    if lrv <= 0.0:
        raise ValueError("long-run variance is not positive")
    se = math.sqrt(lrv / n)
    return MeanTest(mean=m, se=se, t=m / se, bandwidth=bandwidth, n=n)


@dataclass(frozen=True)
class BootstrapSpec:
    block: int = 63
    iterations: int = 10_000
    seed: int = 0
    confidence: float = 0.95

    def __post_init__(self):
        if self.block < 1:
            raise ValueError("block length must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    ci_lo: float
    ci_hi: float
    spec: BootstrapSpec

    @property
    def width(self) -> float:
        return self.ci_hi - self.ci_lo


def _stat_sharpe(rows: np.ndarray) -> np.ndarray:
    mu = rows.mean(axis=1)
    sd = rows.std(axis=1, ddof=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = mu / sd * math.sqrt(TRADING_DAYS_PER_YEAR)
    out[sd == 0.0] = np.nan
    return out

def _stat_cagr(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[1]
    growth = np.prod(1.0 + rows, axis=1)
    return growth ** (TRADING_DAYS_PER_YEAR / n) - 1.0

_NAMED_STATS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sharpe": _stat_sharpe,
    "cagr": _stat_cagr,
}

_MAX_REDRAW_ROUNDS = 100
# Resamples are drawn and reduced this many at a time, so memory is bounded by
# the chunk and the series length whatever spec.iterations is.
_CHUNK_ROWS = 256
# A block-sum Sharpe resample whose sum of squared deviations is at or below
# this fraction of sum(v**2) is recomputed from its gathered values. Above it
# the prefix-sum rounding error is negligible; at or below it the gathered
# values decide, so a resample is redrawn exactly when its gathered sd is 0.
_SS_REL_FLOOR = 1e-6


def _gather(v: np.ndarray, starts: np.ndarray, block: int) -> np.ndarray:
    """One resample per row of `starts`: the wraparound blocks of length
    `block` starting there, concatenated and truncated to len(v)."""
    n = len(v)
    k, nblocks = starts.shape
    idx = (starts[:, :, None] + np.arange(block)) % n
    return v[idx.reshape(k, nblocks * block)[:, :n]]


def _block_sum_sharpe(v: np.ndarray, block: int) -> Callable[[np.ndarray], np.ndarray]:
    """A function from block starts (k x nblocks) to the Sharpe ratios of
    the k resamples they define, computed from the blocks' sums of x and x**2.

    The sums come from prefix sums of the demeaned series laid twice end to
    end: a block starts below n and covers at most n values, so each block
    sum is one difference and a resample costs O(nblocks), not O(n)."""
    n = len(v)
    nblocks = -(-n // block)
    centre = float(np.mean(v))
    d = np.tile(v - centre, 2)
    p1 = np.concatenate([[0.0], np.cumsum(d)])
    p2 = np.concatenate([[0.0], np.cumsum(d * d)])
    lengths = np.full(nblocks, block)
    lengths[-1] = n - (nblocks - 1) * block
    floor = _SS_REL_FLOOR * float(np.dot(v, v))
    annualize = math.sqrt(TRADING_DAYS_PER_YEAR)

    def stat(starts: np.ndarray) -> np.ndarray:
        ends = starts + lengths
        s1 = (p1[ends] - p1[starts]).sum(axis=1)
        s2 = (p2[ends] - p2[starts]).sum(axis=1)
        ss = s2 - s1 * s1 / n
        with np.errstate(invalid="ignore", divide="ignore"):
            out = (centre + s1 / n) / np.sqrt(ss / (n - 1)) * annualize
        tiny = ~(ss > floor)
        if tiny.any():
            out[tiny] = _stat_sharpe(_gather(v, starts[tiny], block))
        return out

    return stat


def circular_block_bootstrap(
    returns, spec: BootstrapSpec, statistic: str | Callable = "sharpe"
) -> BootstrapResult:
    """Percentile CI for a statistic of a daily return series.

    Resamples are ceil(n/block) wraparound blocks truncated to n. Resamples
    where the statistic is undefined (e.g. zero volatility under "sharpe")
    are redrawn, with a hard retry limit. Deterministic in spec.seed and
    independent of any parallelism in the caller.

    "sharpe" is computed from per-block sums of x and x**2, so a resample
    costs O(ceil(n/block)); "cagr" and callables gather each resample's
    values. Both work through the draws in fixed-size chunks, so memory does
    not grow with spec.iterations beyond the array of statistics.
    """
    v = _values(returns)
    n = len(v)
    if n < 2:
        raise ValueError("need at least two observations")
    if isinstance(statistic, str):
        try:
            stat_rows = _NAMED_STATS[statistic]
        except KeyError:
            raise ValueError(f"unknown statistic {statistic!r}") from None
    else:
        fn = statistic
        def stat_rows(rows: np.ndarray) -> np.ndarray:
            return np.asarray([fn(row) for row in rows], dtype=np.float64)

    point = float(stat_rows(v[None, :])[0])
    if not np.isfinite(point):
        raise ValueError("statistic undefined on the original sample")

    b = spec.block
    nblocks = -(-n // b)  # ceil
    if stat_rows is _stat_sharpe:
        resample = _block_sum_sharpe(v, b)
    else:
        def resample(starts: np.ndarray) -> np.ndarray:
            return stat_rows(_gather(v, starts, b))
    rng = np.random.default_rng(spec.seed)

    def draw(k: int) -> np.ndarray:
        out = np.empty(k)
        for i in range(0, k, _CHUNK_ROWS):
            m = min(_CHUNK_ROWS, k - i)
            out[i:i + m] = resample(rng.integers(0, n, size=(m, nblocks)))
        return out

    stats = draw(spec.iterations)
    for _ in range(_MAX_REDRAW_ROUNDS):
        bad = ~np.isfinite(stats)
        if not bad.any():
            break
        stats[bad] = draw(int(bad.sum()))
    else:
        raise ValueError("bootstrap retry limit exceeded; statistic undefined too often")

    lo = (1.0 - spec.confidence) / 2.0
    ci_lo, ci_hi = np.quantile(stats, [lo, 1.0 - lo], overwrite_input=True)
    return BootstrapResult(point=point, ci_lo=float(ci_lo), ci_hi=float(ci_hi), spec=spec)


@dataclass(frozen=True)
class SharpeEquality:
    z: float
    p: float
    sharpe_1: float
    sharpe_2: float


def sharpe_equality_test(r1, r2) -> SharpeEquality:
    """Two-sided z-test of equal Sharpe ratios for two aligned return series
    (Jobson-Korkie form, Memmel-corrected variance). Scale-free: computed on
    per-period ratios."""
    a = _values(r1)
    c = _values(r2)
    if len(a) != len(c):
        raise ValueError("series lengths differ")
    T = len(a)
    if T < 3:
        raise ValueError("need at least three observations")
    if np.min(a) == np.max(a) or np.min(c) == np.max(c):
        raise ValueError("zero volatility in an input series")
    mu1, mu2 = float(np.mean(a)), float(np.mean(c))
    s1, s2 = float(np.std(a, ddof=1)), float(np.std(c, ddof=1))
    if s1 == 0.0 or s2 == 0.0:
        raise ValueError("zero volatility in an input series")
    cov = float(np.dot(a - mu1, c - mu2)) / (T - 1)
    rho = cov / (s1 * s2)
    sr1, sr2 = mu1 / s1, mu2 / s2

    num = s2 * mu1 - s1 * mu2
    if num == 0.0:
        return SharpeEquality(z=0.0, p=1.0, sharpe_1=sr1, sharpe_2=sr2)
    theta = (
        2.0 * (1.0 - rho)
        + 0.5 * (sr1 * sr1 + sr2 * sr2)
        - sr1 * sr2 * rho * rho
    ) / T
    if theta <= 0.0:
        raise ValueError("degenerate variance in Sharpe difference")
    z = (sr1 - sr2) / math.sqrt(theta)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return SharpeEquality(z=z, p=p, sharpe_1=sr1, sharpe_2=sr2)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n, each tie group given the mean of the ranks it spans; all
    NaN if x holds a NaN."""
    if np.isnan(x).any():
        return np.full(len(x), np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.concatenate([[True], xs[1:] != xs[:-1]])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], len(x))
    ranks = np.empty(len(x))
    ranks[order] = ((starts + ends + 1) / 2.0)[np.cumsum(first) - 1]
    return ranks


def spearman(a, b) -> float:
    """Rank correlation with average ranks on ties."""
    x = _values(a)
    y = _values(b)
    if len(x) != len(y):
        raise ValueError("series lengths differ")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        raise ValueError("zero rank variance (all values tied)")
    rxd = rx - rx.mean()
    ryd = ry - ry.mean()
    return float(np.dot(rxd, ryd) / math.sqrt(np.dot(rxd, rxd) * np.dot(ryd, ryd)))
