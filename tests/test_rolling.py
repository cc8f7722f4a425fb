import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from dynte import rolling
from dynte.rolling import (
    WindowSpec,
    moving_average,
    rolling_avg_pairwise_corr,
    rolling_corr,
    rolling_vol,
)
from dynte.timeseries import (
    AssetPanel,
    Series,
    UNIT_LEVEL,
    UNIT_RETURN,
    make_weekday_calendar,
)


def rser(values, unit=UNIT_RETURN):
    vals = np.asarray(values, dtype=float)
    return Series(make_weekday_calendar(dt.date(2016, 1, 4), len(vals)), vals, unit)


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(0)
    with pytest.raises(ValueError):
        WindowSpec(5, min_periods=6)
    with pytest.raises(ValueError):
        WindowSpec(5, min_periods=0)
    assert WindowSpec(5).min_periods == 5


def test_moving_average_basic():
    out = moving_average(rser([1.0, 2.0, 3.0, 4.0], UNIT_LEVEL), WindowSpec(2))
    assert_allclose(out.values, [1.5, 2.5, 3.5])
    # output starts once a full window exists
    assert out.calendar.dates == make_weekday_calendar(dt.date(2016, 1, 4), 4).dates[1:]


def test_moving_average_constant_and_identity():
    c = rser([7.0] * 10, UNIT_LEVEL)
    assert_allclose(moving_average(c, WindowSpec(4)).values, np.full(7, 7.0))
    s = rser([3.0, 1.0, 4.0], UNIT_LEVEL)
    assert_array_equal(moving_average(s, WindowSpec(1)).values, s.values)


def test_moving_average_min_periods_head():
    s = rser([2.0, 4.0, 6.0, 8.0], UNIT_LEVEL)
    out = moving_average(s, WindowSpec(3, min_periods=1))
    assert_allclose(out.values, [2.0, 3.0, 4.0, 6.0])
    assert out.calendar.dates == s.calendar.dates


def test_rolling_vol_alternating_oracle():
    # +-1% alternation: sample std 0.011547, times sqrt(252) = 0.18330
    s = rser([0.01, -0.01] * 4)
    out = rolling_vol(s, WindowSpec(4))
    sd = np.std([0.01, -0.01, 0.01, -0.01], ddof=1)
    assert_allclose(sd, 0.011547, atol=5e-7)
    assert_allclose(out.values, np.full(5, sd * np.sqrt(252.0)))
    assert_allclose(out.values[0], 0.18330, atol=5e-6)


def test_rolling_vol_constant_returns_zero():
    # 2^-8 is exactly representable, so the mean subtraction is exact
    out = rolling_vol(rser([0.00390625] * 30), WindowSpec(10))
    assert_array_equal(out.values, np.zeros(21))
    # a non-dyadic constant only reaches zero at float precision
    out = rolling_vol(rser([0.004] * 30), WindowSpec(10))
    assert_allclose(out.values, 0.0, atol=1e-15)


def test_rolling_vol_one_point_window_cannot_emit():
    with pytest.raises(ValueError, match="no value can be emitted"):
        rolling_vol(rser([0.01, 0.02]), WindowSpec(1, min_periods=1))


def test_rolling_vol_rejects_levels():
    with pytest.raises(ValueError, match="return series"):
        rolling_vol(rser([1.0, 2.0], UNIT_LEVEL), WindowSpec(2))


def test_rolling_corr_perfect_and_anti():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(40) * 0.01
    a = rser(x)
    assert_allclose(rolling_corr(a, a, WindowSpec(10)).values, 1.0, atol=1e-12)
    b = Series(a.calendar, -x, UNIT_RETURN)
    assert_allclose(rolling_corr(a, b, WindowSpec(10)).values, -1.0, atol=1e-12)


def test_rolling_corr_zero_variance_is_nan():
    a = rser(np.linspace(0.0, 0.01, 20))
    b = rser([0.005] * 20)
    out = rolling_corr(a, b, WindowSpec(5))
    assert np.all(np.isnan(out.values))
    assert out.unit == UNIT_LEVEL


def test_rolling_corr_calendar_mismatch():
    a = rser([0.01, 0.02, 0.03])
    b = Series(a.calendar.suffix(1), [0.01, 0.02], UNIT_RETURN)
    with pytest.raises(ValueError, match="same calendar"):
        rolling_corr(a, b, WindowSpec(2))


def test_pairwise_corr_identical_and_negated():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(60) * 0.01
    cal = make_weekday_calendar(dt.date(2016, 1, 4), 60)
    a = Series(cal, x, UNIT_RETURN)
    b = Series(cal, x.copy(), UNIT_RETURN)
    panel = AssetPanel(cal, {"A": a, "B": b})
    assert_allclose(
        rolling_avg_pairwise_corr(panel, WindowSpec(20)).values, 1.0, atol=1e-12
    )
    # two identical plus the exact negation: mean of {1, -1, -1} = -1/3
    c = Series(cal, -x, UNIT_RETURN)
    panel3 = AssetPanel(cal, {"A": a, "B": b, "C": c})
    assert_allclose(
        rolling_avg_pairwise_corr(panel3, WindowSpec(20)).values,
        -1.0 / 3.0,
        atol=1e-12,
    )


def test_pairwise_corr_independent_noise_near_zero():
    rng = np.random.default_rng(2)
    n, nsym = 800, 10
    cal = make_weekday_calendar(dt.date(2010, 1, 4), n)
    panel = AssetPanel(
        cal,
        {
            f"S{i}": Series(cal, 0.01 * rng.standard_normal(n), UNIT_RETURN)
            for i in range(nsym)
        },
    )
    out = rolling_avg_pairwise_corr(panel, WindowSpec(500))
    assert np.max(np.abs(out.values)) < 0.1


def test_pairwise_corr_needs_two_symbols():
    cal = make_weekday_calendar(dt.date(2016, 1, 4), 10)
    panel = AssetPanel(cal, {"A": Series(cal, np.zeros(10), UNIT_RETURN)})
    with pytest.raises(ValueError, match="two symbols"):
        rolling_avg_pairwise_corr(panel, WindowSpec(3))


# ------------------------------------------------- brute-force equivalence


def brute_mean(vals, L, mp):
    return np.array(
        [np.mean(vals[max(0, t - L + 1) : t + 1]) for t in range(mp - 1, len(vals))]
    )


def brute_vol(vals, L, mp):
    return np.array(
        [
            np.std(vals[max(0, t - L + 1) : t + 1], ddof=1) * np.sqrt(252.0)
            for t in range(mp - 1, len(vals))
        ]
    )


def brute_corr(x, y, L, mp):
    out = []
    for t in range(mp - 1, len(x)):
        a = x[max(0, t - L + 1) : t + 1]
        b = y[max(0, t - L + 1) : t + 1]
        va = np.var(a)
        vb = np.var(b)
        if va == 0.0 or vb == 0.0:
            out.append(np.nan)
        else:
            out.append(np.corrcoef(a, b)[0, 1])
    return np.array(out)


def test_brute_force_equivalence_random_fixtures():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(5, 120))
        L = int(rng.integers(2, n + 1))
        mp = int(rng.integers(2, L + 1))
        x = 0.02 * rng.standard_normal(n)
        y = 0.02 * rng.standard_normal(n)
        cal = make_weekday_calendar(dt.date(2012, 1, 2), n)
        sx = Series(cal, x, UNIT_RETURN)
        sy = Series(cal, y, UNIT_RETURN)
        w = WindowSpec(L, min_periods=mp)
        assert_allclose(moving_average(sx, w).values, brute_mean(x, L, mp), atol=1e-12)
        assert_allclose(rolling_vol(sx, w).values, brute_vol(x, L, mp), atol=1e-12)
        got = rolling_corr(sx, sy, w).values
        want = brute_corr(x, y, L, mp)
        assert_array_equal(np.isnan(got), np.isnan(want))
        assert_allclose(got[~np.isnan(got)], want[~np.isnan(want)], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-0.2, max_value=0.2, allow_nan=False), min_size=2, max_size=50
    ),
    length=st.integers(min_value=1, max_value=12),
)
def test_moving_average_matches_brute_force(data, length):
    vals = np.asarray(data)
    L = min(length, len(vals))
    s = rser(vals, UNIT_LEVEL)
    out = moving_average(s, WindowSpec(L))
    assert_allclose(out.values, brute_mean(vals, L, L), atol=1e-12)
    assert np.array_equal(out.calendar.days, s.calendar.days[len(vals) - len(out):])


def test_output_calendars_are_suffixes():
    s = rser(0.01 * np.random.default_rng(3).standard_normal(50))
    for w in (WindowSpec(5), WindowSpec(9, min_periods=4)):
        for out in (moving_average(s, w), rolling_vol(s, w)):
            assert np.array_equal(out.calendar.days, s.calendar.days[len(s) - len(out):])


def test_chunked_full_windows_equal_one_shot(monkeypatch):
    rng = np.random.default_rng(11)
    n = 300
    cal = make_weekday_calendar(dt.date(2012, 1, 2), n)
    cols = 0.01 * rng.standard_normal((3, n))
    cols[:, 100:140] = 0.0  # zero-variance windows in some chunks
    series = [Series(cal, c, UNIT_RETURN) for c in cols]
    panel = AssetPanel(cal, {f"S{i}": s for i, s in enumerate(series)})

    def run(w):
        return [moving_average(series[0], w), rolling_vol(series[0], w),
                rolling_corr(series[0], series[1], w), rolling_avg_pairwise_corr(panel, w)]

    for w in (WindowSpec(21), WindowSpec(21, min_periods=5)):
        one_shot = run(w)
        # one full window a chunk, then 13 of the 280, with a short last chunk
        for floats in (1, 13 * 21):
            monkeypatch.setattr(rolling, "_CHUNK_FLOATS", floats)
            for a, b in zip(run(w), one_shot):
                assert a.calendar == b.calendar
                assert a.values.tobytes() == b.values.tobytes()
            monkeypatch.undo()


def test_each_columns_chunk_stays_under_the_mmap_threshold():
    # a chunk's window buffer per column stays under 120 KB, below glibc's
    # default 128 KiB mmap threshold, whatever the column count, so a
    # statistic's buffers are reused from the heap
    rng = np.random.default_rng(12)
    n, L = 6552, 63
    cal = make_weekday_calendar(dt.date(2000, 1, 3), n)
    chunks = []

    def stat(*cols):
        chunks.extend(c.nbytes for c in cols if c.ndim == 2)
        return cols[0].sum(axis=-1)

    for k in (1, 3):
        chunks.clear()
        cols = list(rng.standard_normal((k, n)))
        rolling._trailing(cal, cols, WindowSpec(L), 1, stat, UNIT_LEVEL)
        assert len(chunks) == k * -(-(n - L + 1) // (15_000 // L))
        assert 100_000 < max(chunks) <= 120_000
