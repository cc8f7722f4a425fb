import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from dynte import inference
from dynte.inference import (
    BootstrapResult,
    BootstrapSpec,
    circular_block_bootstrap,
    newey_west_mean_test,
    sharpe_equality_test,
    spearman,
)


# ------------------------------------------------------------- newey-west


def test_nw_bandwidth_zero_is_classical_t():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(500) * 0.01 + 0.0002
    got = newey_west_mean_test(x, bandwidth=0)
    want = stats.ttest_1samp(x, 0.0)
    assert_allclose(got.t, want.statistic, rtol=1e-12)
    assert_allclose(got.mean, np.mean(x), rtol=1e-14)


def test_nw_matches_bartlett_brute_force():
    rng = np.random.default_rng(1)
    # AR(1) so the autocovariances actually matter
    n, phi = 400, 0.6
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0]
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    for L in (1, 5, 21):
        got = newey_west_mean_test(x, bandwidth=L)
        d = x - np.mean(x)
        lrv = np.dot(d, d) / n
        for j in range(1, L + 1):
            lrv += 2.0 * (1.0 - j / (L + 1.0)) * np.dot(d[j:], d[:-j]) / n
        lrv *= n / (n - 1.0)
        assert_allclose(got.se, math.sqrt(lrv / n), rtol=1e-13)
        assert_allclose(got.t, np.mean(x) / math.sqrt(lrv / n), rtol=1e-13)


def test_nw_se_continuous_in_bandwidth():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2000)
    ses = [newey_west_mean_test(x, bandwidth=L).se for L in range(0, 25)]
    steps = np.abs(np.diff(ses)) / np.asarray(ses[:-1])
    assert np.max(steps) < 0.10  # only the kernel weights move


def test_nw_constant_series_has_no_variance():
    with pytest.raises(ValueError, match="variance"):
        newey_west_mean_test(np.full(50, 0.3), bandwidth=3)


def test_nw_input_validation():
    x = np.arange(10.0)
    with pytest.raises(ValueError):
        newey_west_mean_test(x, bandwidth=-1)
    with pytest.raises(ValueError):
        newey_west_mean_test(x, bandwidth=10)


def test_nw_iid_size_control():
    # i.i.d. data: the bandwidth-21 test should reject ~5% of the time
    rng = np.random.default_rng(3)
    nseeds, n = 300, 10_000
    x = rng.standard_normal((nseeds, n))
    dm = x - x.mean(axis=1, keepdims=True)
    lrv = np.einsum("ij,ij->i", dm, dm) / n
    for j in range(1, 22):
        w = 1.0 - j / 22.0
        lrv += 2.0 * w * np.einsum("ij,ij->i", dm[:, j:], dm[:, :-j]) / n
    lrv *= n / (n - 1.0)
    t = x.mean(axis=1) / np.sqrt(lrv / n)
    # the vectorized stats above must agree with the scalar implementation
    one = newey_west_mean_test(x[0], bandwidth=21)
    assert_allclose(one.t, t[0], rtol=1e-12)
    assert np.mean(np.abs(t) < 2.0) >= 0.90


# -------------------------------------------------------------- bootstrap


def test_bootstrap_rotation_invariance():
    rng = np.random.default_rng(6)
    r = 0.01 * rng.standard_normal(100) + 0.0005
    spec = BootstrapSpec(block=100, iterations=300, seed=0)
    out = circular_block_bootstrap(r, spec)
    # every resample is a rotation of the sample, so the Sharpe is the
    # original up to summation order; the interval collapses
    assert out.width <= 1e-12
    assert_allclose(out.ci_lo, out.point, atol=1e-12)


def test_bootstrap_deterministic_in_seed():
    rng = np.random.default_rng(7)
    r = 0.01 * rng.standard_normal(400)
    spec = BootstrapSpec(block=21, iterations=500, seed=11)
    a = circular_block_bootstrap(r, spec)
    b = circular_block_bootstrap(r, spec)
    assert (a.ci_lo, a.ci_hi) == (b.ci_lo, b.ci_hi)
    c = circular_block_bootstrap(r, BootstrapSpec(21, 500, 12))
    assert (a.ci_lo, a.ci_hi) != (c.ci_lo, c.ci_hi)


def test_bootstrap_point_estimates():
    rng = np.random.default_rng(8)
    r = 0.01 * rng.standard_normal(300) + 0.0004
    spec = BootstrapSpec(block=21, iterations=50, seed=0)
    sharpe_pt = circular_block_bootstrap(r, spec).point
    want = np.mean(r) / np.std(r, ddof=1) * math.sqrt(252.0)
    assert_allclose(sharpe_pt, want, rtol=1e-12)


def test_bootstrap_interval_brackets_truth_generously():
    rng = np.random.default_rng(10)
    true_daily = 0.0006
    r = 0.01 * rng.standard_normal(2000) + true_daily
    spec = BootstrapSpec(block=63, iterations=800, seed=1)
    out = circular_block_bootstrap(r, spec)
    assert out.ci_lo < out.point < out.ci_hi


# The all-at-once gather implementation that the block-sum and chunked
# paths replaced: every resample is materialised as a row of an
# iterations x n array. Kept as the reference they must reproduce.


def _oracle_stat_sharpe(rows):
    mu = rows.mean(axis=1)
    sd = rows.std(axis=1, ddof=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = mu / sd * math.sqrt(252.0)
    out[sd == 0.0] = np.nan
    return out


def oracle_bootstrap(v, spec: BootstrapSpec) -> BootstrapResult:
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    point = float(_oracle_stat_sharpe(v[None, :])[0])
    if not np.isfinite(point):
        raise ValueError("statistic undefined on the original sample")
    b = spec.block
    nblocks = -(-n // b)
    rng = np.random.default_rng(spec.seed)
    offsets = np.arange(b)

    def draw(k):
        starts = rng.integers(0, n, size=(k, nblocks))
        idx = (starts[:, :, None] + offsets[None, None, :]) % n
        return v[idx.reshape(k, nblocks * b)[:, :n]]

    stats_ = _oracle_stat_sharpe(draw(spec.iterations))
    for _ in range(100):
        bad = ~np.isfinite(stats_)
        if not bad.any():
            break
        stats_[bad] = _oracle_stat_sharpe(draw(int(bad.sum())))
    else:
        raise ValueError("bootstrap retry limit exceeded; statistic undefined too often")
    lo = (1.0 - spec.confidence) / 2.0
    ci_lo, ci_hi = np.quantile(stats_, [lo, 1.0 - lo])
    return BootstrapResult(point=point, ci_lo=float(ci_lo), ci_hi=float(ci_hi), spec=spec)


def assert_matches_oracle(r, spec):
    try:
        want = oracle_bootstrap(r, spec)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            circular_block_bootstrap(r, spec)
        return
    got = circular_block_bootstrap(r, spec)
    assert got.point == want.point
    # block sums add in another order; a resample whose mean is exactly
    # zero reads rounding dust of order 1e-16 in either method
    assert_allclose([got.ci_lo, got.ci_hi], [want.ci_lo, want.ci_hi],
                    rtol=1e-12, atol=1e-13)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 300),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    ticks=st.booleans(),
)
def test_bootstrap_matches_gather_oracle(n, data, seed, ticks):
    # block >= n and n % block != 0 are both in range
    block = data.draw(st.integers(1, 2 * n), label="block")
    rng = np.random.default_rng(seed)
    if ticks:
        # a few distinct values: ties and constant resamples, so redraws
        r = 0.01 * rng.integers(-1, 2, size=n).astype(np.float64)
    else:
        r = 0.0003 + 0.01 * rng.standard_normal(n)
    # more than two chunks of draws
    spec = BootstrapSpec(block=block, iterations=601, seed=seed % 1000)
    assert_matches_oracle(r, spec)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("base", [0.0, 0.01])
def test_bootstrap_redraws_match_gather_oracle(seed, base):
    # block 1 on nine equal values and one 0.01 above them: about a third of
    # the resamples repeat one value. Their gathered sd is exactly 0 for
    # zeros, so they are redrawn, but rounding dust for 0.01, so they are
    # kept with a Sharpe near 1e17 and fill the top third of the draws. A
    # redraw decided otherwise than by the gathered sd moves the quartiles.
    r = np.full(10, base)
    r[3] = base + 0.01
    spec = BootstrapSpec(block=1, iterations=2000, seed=seed, confidence=0.5)
    assert_matches_oracle(r, spec)


def series_rows(rng, n, bursts):
    """One row per entry of `bursts`: where it is true, zeros but for a
    burst of n // 8 + 1 Gaussian values at a random place, so every
    resample that misses the burst is constant and redrawn, and the others
    spread; else a Gaussian series."""
    rows = 0.0003 + 0.01 * rng.standard_normal((len(bursts), n))
    for row, burst in zip(rows, bursts):
        if burst:
            row[n // 8 + 1:] = 0.0
            row[:] = np.roll(row, rng.integers(n))
    return rows


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 200),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bootstrap_rows_equal_single_series(n, data, seed):
    # block >= n and n % block != 0 are both in range; burst rows redraw
    # often, Gaussian rows seldom, so each row redraws on its own
    block = data.draw(st.integers(1, 2 * n), label="block")
    bursts = data.draw(st.lists(st.booleans(), min_size=1, max_size=5), label="bursts")
    rows = series_rows(np.random.default_rng(seed), n, bursts)
    spec = BootstrapSpec(block=block, iterations=601, seed=seed % 1000)
    singles = [_outcome(lambda: circular_block_bootstrap(r, spec)) for r in rows]
    errors = [x for x in singles if isinstance(x, str)]
    if errors:
        # the points are checked before any draw, then each row's redraws
        undefined = "statistic undefined on the original sample"
        with pytest.raises(ValueError, match=undefined if undefined in errors else errors[0]):
            circular_block_bootstrap(rows, spec)
        return
    batch = circular_block_bootstrap(rows, spec)
    assert [(b.point, b.ci_lo, b.ci_hi) for b in batch] == \
        [(s.point, s.ci_lo, s.ci_hi) for s in singles]


@pytest.mark.parametrize("k", [1, 3])
def test_bootstrap_chunked_draws_equal_one_shot(monkeypatch, k):
    rows = series_rows(np.random.default_rng(18), 250, [False] * k)
    spec = BootstrapSpec(block=50, iterations=1001, seed=4)  # 5 blocks a resample
    one_shot = circular_block_bootstrap(rows, spec)
    monkeypatch.setattr(inference, "_CHUNK_ROWS", 3)
    chunked = circular_block_bootstrap(rows, spec)
    assert [(c.ci_lo, c.ci_hi) for c in chunked] == [(o.ci_lo, o.ci_hi) for o in one_shot]
    for r in rows:
        assert_matches_oracle(r, spec)


@pytest.mark.parametrize("k", [1, 3])
def test_bootstrap_memory_bounded_in_iterations(k):
    rows = series_rows(np.random.default_rng(19), 252, [False] * k)
    iterations = 200_000
    spec = BootstrapSpec(block=21, iterations=iterations, seed=0)
    tracemalloc.start()
    try:
        circular_block_bootstrap(rows, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all-at-once resampling would hold k x iterations x 252 values (400 MB
    # a series); beyond the k x iterations statistics only chunk-sized
    # buffers may remain
    assert peak - 8 * k * iterations < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_bootstrap_input_shapes():
    rows = series_rows(np.random.default_rng(20), 100, [False, False])
    spec = BootstrapSpec(block=10, iterations=50)
    one = circular_block_bootstrap(rows[0], spec)
    assert isinstance(one, BootstrapResult)
    assert circular_block_bootstrap(rows[:1], spec) == [one]
    with pytest.raises(ValueError, match="one-dimensional"):
        circular_block_bootstrap(rows[None], spec)


def test_bootstrap_spec_validation():
    with pytest.raises(ValueError):
        BootstrapSpec(block=0)
    with pytest.raises(ValueError):
        BootstrapSpec(iterations=0)
    with pytest.raises(ValueError):
        BootstrapSpec(confidence=1.0)


# -------------------------------------------------------- sharpe equality


def test_sharpe_equality_identical_series():
    rng = np.random.default_rng(11)
    r = 0.01 * rng.standard_normal(300) + 0.0003
    out = sharpe_equality_test(r, r)
    assert out.z == 0.0
    assert out.p == 1.0


def test_sharpe_equality_scale_invariance_exact():
    rng = np.random.default_rng(12)
    r = 0.01 * rng.standard_normal(500) + 0.0004
    out = sharpe_equality_test(r, 2.0 * r)
    # doubling is exact in binary floating point, so the Jobson-Korkie
    # numerator cancels identically
    assert abs(out.z) < 1e-8
    assert out.z == 0.0
    assert out.sharpe_1 == pytest.approx(out.sharpe_2, rel=1e-12)


def test_sharpe_equality_antisymmetric():
    rng = np.random.default_rng(13)
    a = 0.01 * rng.standard_normal(400) + 0.0002
    b = 0.012 * rng.standard_normal(400) + 0.0007
    ab = sharpe_equality_test(a, b)
    ba = sharpe_equality_test(b, a)
    assert_allclose(ab.z, -ba.z, rtol=1e-12)
    assert_allclose(ab.p, ba.p, rtol=1e-12)


def test_sharpe_equality_detects_large_gap():
    rng = np.random.default_rng(14)
    n = 5000
    weak = rng.standard_normal(n) + 0.2    # per-period sharpe 0.2
    strong = rng.standard_normal(n) + 1.0  # per-period sharpe 1.0
    out = sharpe_equality_test(weak, strong)
    assert out.z < -10.0
    assert out.p < 1e-12


def test_sharpe_equality_zero_vol_errors():
    with pytest.raises(ValueError, match="zero volatility"):
        sharpe_equality_test(np.full(10, 0.01), np.arange(10.0))


def test_sharpe_equality_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ"):
        sharpe_equality_test(np.ones(5), np.ones(6))


# ---------------------------------------------------------------- spearman


def test_spearman_monotone_transform():
    rng = np.random.default_rng(15)
    x = rng.standard_normal(200)
    assert_allclose(spearman(x, np.exp(x)), 1.0, atol=1e-14)
    assert_allclose(spearman(x, -x), -1.0, atol=1e-14)


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(16)
    x = rng.integers(0, 8, size=150).astype(float)  # many ties
    y = x + rng.standard_normal(150)
    want = stats.spearmanr(x, y).statistic
    assert_allclose(spearman(x, y), want, rtol=1e-12)


def test_spearman_all_ties_error():
    with pytest.raises(ValueError, match="tied"):
        spearman(np.full(20, 2.0), np.arange(20.0))
