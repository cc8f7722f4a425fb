"""Serial-correlation-robust inference.

Long-run variances use the Bartlett kernel with weight 1 - j/(L+1) at lag j
(Newey-West), scaled by n/(n-1), so bandwidth 0 reproduces the classical
one-sample t. The circular block bootstrap follows Politis-Romano:
fixed-length blocks with wraparound, percentile intervals, for the Sharpe
ratio. A resample is reduced from its blocks' sums of x and x**2, read off
per-start tables built once from prefix sums of the demeaned series, so it
costs O(n/block) rather than O(n); only a resample with near-zero variance
gathers its values. k aligned series are bootstrapped on one shared draw of
block starts, and each one's interval is exactly its single-series result.
Draws are processed in chunks sized by a value budget, so memory does not
grow with the number of iterations beyond k x iterations statistics.
Percentiles, here and in the regime and event studies, are numpy's default
linear ones, computed bit for bit by linear_quantiles from one partition,
without np.quantile's import of numpy.ma.
Sharpe equality uses the Jobson-Korkie statistic with Memmel's variance
correction.
"""

from __future__ import annotations

import copy
import math
from typing import Callable

import numpy as np

from ._record import record
from .timeseries import TRADING_DAYS_PER_YEAR


def _values(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional sample")
    return arr


def linear_quantiles(a: np.ndarray, qs) -> np.ndarray:
    """np.quantile(a, qs) of a 1-D float array, bit for bit, partitioning
    `a` in place as overwrite_input=True does; qs lie in [0, 1].

    numpy's linear method, step for step: the virtual index (n-1)*q, its
    floor and the next index, both set to the last where the virtual index
    is at or above n-1; gamma is the virtual index less that adjusted floor.
    One partition places those order statistics, the first and the last.
    The lerp is a + d*gamma, or b - d*(1-gamma) where gamma >= 0.5. A NaN
    sorts last, and then every quantile is that NaN.
    """
    q = np.asarray(qs, dtype=np.float64)
    n = len(a)
    virtual = (n - 1) * q
    prev = np.floor(virtual)
    nxt = prev + 1
    above, below = virtual >= n - 1, virtual < 0
    prev[above] = nxt[above] = -1
    prev[below] = nxt[below] = 0
    gamma = virtual - prev
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    a.partition(sorted({0, -1, *prev.tolist(), *nxt.tolist()}))
    if np.isnan(a[-1]):
        return np.full(len(q), a[-1])
    lo, hi = a[prev], a[nxt]
    with np.errstate(invalid="ignore", over="ignore"):
        d = hi - lo
        out = lo + d * gamma
        np.subtract(hi, d * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


@record(frozen=True)
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


@record(frozen=True)
class BootstrapSpec:
    block: int
    iterations: int
    seed: int
    confidence: float

    def __post_init__(self):
        if self.block < 1:
            raise ValueError("block length must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@record(frozen=True)
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


_MAX_REDRAW_ROUNDS = 100
# Resamples are drawn and reduced in chunks of at most _CHUNK_ROWS resamples
# and _CHUNK_VALUES block starts, so memory is bounded by the chunk whatever
# spec.iterations is. Each per-chunk array (int64 starts, float64 block sums)
# then stays under 120 KB, below glibc's default 128 KB mmap threshold, so it
# is reused from the heap rather than mapped and page-faulted anew each chunk.
_CHUNK_ROWS = 256
_CHUNK_VALUES = 15_000
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

    A block starts below n and covers at most n values, so each block sum is
    one difference of prefix sums of the demeaned series laid twice end to
    end. Those differences are tabled once per start: one table for blocks
    of min(block, n) values and, when the last block is shorter, one for it.
    A resample is then one gather per table and a row sum, O(nblocks), not
    O(n)."""
    n = len(v)
    nblocks = -(-n // block)
    centre = float(np.mean(v))
    full, last = min(block, n), n - (nblocks - 1) * block
    # d and then d**2 share one buffer, and their prefix sums another: in a
    # batch these build while the earlier series' tables are held
    d = np.tile(v - centre, 2)
    p = np.zeros(2 * n + 1)
    tables = []
    for square in (False, True):
        if square:
            np.multiply(d, d, out=d)
        np.cumsum(d, out=p[1:])
        tables.append((p[full:full + n] - p[:n],
                       None if last == full else p[last:last + n] - p[:n]))
    floor = _SS_REL_FLOOR * float(np.dot(v, v))
    annualize = math.sqrt(TRADING_DAYS_PER_YEAR)

    def block_sums(starts: np.ndarray, table: np.ndarray, last_table) -> np.ndarray:
        sums = table[starts]
        if last_table is not None:
            sums[:, -1] = last_table[starts[:, -1]]
        return sums.sum(axis=1)

    def stat(starts: np.ndarray) -> np.ndarray:
        s1, s2 = (block_sums(starts, *t) for t in tables)
        ss = s2 - s1 * s1 / n
        with np.errstate(invalid="ignore", divide="ignore"):
            out = (centre + s1 / n) / np.sqrt(ss / (n - 1)) * annualize
        tiny = ~(ss > floor)
        if tiny.any():
            out[tiny] = _stat_sharpe(_gather(v, starts[tiny], block))
        return out

    return stat


def circular_block_bootstrap(returns: np.ndarray, spec: BootstrapSpec) -> list[BootstrapResult]:
    """Percentile CIs for the annualized Sharpe ratios of k aligned daily
    return series, the only statistic it computes: `returns` is a k x n
    array, and the result a list of k results, one per row.

    Resamples are ceil(n/block) wraparound blocks truncated to n. All rows
    read their resamples off one shared draw of block starts. Resamples with
    zero volatility are redrawn, with a hard retry limit; a row redraws from
    its own copy of the generator as it stands after the shared draw, so
    each row's result is exactly that of a call on the row alone.
    Deterministic in spec.seed and independent of any parallelism in the
    caller.

    Each resample is computed from per-block sums of x and x**2, so it costs
    O(ceil(n/block)), and the draws are worked through in chunks of bounded
    size, so memory does not grow with spec.iterations beyond the k x
    iterations statistics.
    """
    rows = np.asarray(returns, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("expected a k x n array of return series")
    n = rows.shape[1]
    if n < 2:
        raise ValueError("need at least two observations")
    points = [float(_stat_sharpe(v[None, :])[0]) for v in rows]
    if not np.isfinite(points).all():
        raise ValueError("statistic undefined on the original sample")

    b = spec.block
    nblocks = -(-n // b)  # ceil
    resamples = [_block_sum_sharpe(v, b) for v in rows]
    chunk = max(1, min(_CHUNK_ROWS, _CHUNK_VALUES // nblocks))

    def draw(rng: np.random.Generator, fns: list, k: int) -> np.ndarray:
        out = np.empty((len(fns), k))
        for i in range(0, k, chunk):
            m = min(chunk, k - i)
            starts = rng.integers(0, n, size=(m, nblocks))
            for row, resample in zip(out, fns):
                row[i:i + m] = resample(starts)
        return out

    rng = np.random.default_rng(spec.seed)
    stats = draw(rng, resamples, spec.iterations)
    lo = (1.0 - spec.confidence) / 2.0
    results = []
    for point, resample, row in zip(points, resamples, stats):
        own = copy.deepcopy(rng)
        for _ in range(_MAX_REDRAW_ROUNDS):
            bad = ~np.isfinite(row)
            if not bad.any():
                break
            row[bad] = draw(own, [resample], int(bad.sum()))[0]
        else:
            raise ValueError("bootstrap retry limit exceeded; statistic undefined too often")
        ci_lo, ci_hi = linear_quantiles(row, [lo, 1.0 - lo])
        results.append(BootstrapResult(point=point, ci_lo=float(ci_lo), ci_hi=float(ci_hi),
                                       spec=spec))
    return results


@record(frozen=True)
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
