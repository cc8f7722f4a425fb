import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dynte.cli import load_config
from dynte.regime import HIGH, LOW, NEUTRAL, classify
from dynte.rolling import rolling_vol
from dynte.simulate import OverlayPolicy, benchmark_7030, fixed_mix, simulate_overlay, sizing_vol
from dynte.timeseries import (
    UNIT_LEVEL,
    UNIT_RETURN,
    Series,
    SynthParams,
    TradingCalendar,
    make_weekday_calendar,
    synth_regime_panel,
)

MON = dt.date(2015, 1, 5)
DEFAULTS = load_config(None, {})
T13_22 = DEFAULTS.thresholds
DYN, STA = DEFAULTS.dynamic_policy, DEFAULTS.static_policy
VOL = DEFAULTS.windows["vol"]


def rser(values, start=MON):
    values = np.asarray(values, dtype=np.float64)
    return Series(make_weekday_calendar(start, len(values)), values, UNIT_RETURN)


def synth_market(seed=0, horizon=900):
    panel, _states = synth_regime_panel(SynthParams(seed=seed, horizon=horizon))
    bench = benchmark_7030(panel["BENCH_EQ"], panel["BENCH_BD"])
    path = classify(panel["VIX"], DEFAULTS.windows["signal"], T13_22)
    return bench, panel["SPREAD"], path


# ---------------------------------------------------------- benchmark mix


def test_fixed_mix_equal_legs_pins_weights():
    r = np.full(40, 0.01)
    out = benchmark_7030(rser(r), rser(r))
    assert out.unit == UNIT_RETURN and out.calendar == rser(r).calendar
    assert_allclose(out.values, 0.01, rtol=1e-14)


def test_fixed_mix_drift_day_two():
    eq = rser([0.01, 0.01])
    bd = rser([0.0, 0.0])
    out = benchmark_7030(eq, bd)
    assert_allclose(out.values[0], 0.007, rtol=1e-15)
    w2 = 0.707 / 1.007
    assert_allclose(out.values[1], w2 * 0.01, rtol=1e-13)


def test_fixed_mix_resets_on_month_boundary():
    # 2015-01-30 is a Friday; the next weekday opens February
    cal = make_weekday_calendar(dt.date(2015, 1, 26), 6)
    assert cal[5].month == 2
    eq = Series(cal, np.full(6, 0.01), UNIT_RETURN)
    bd = Series(cal, np.zeros(6), UNIT_RETURN)
    out = benchmark_7030(eq, bd)
    # weights drifted up all January, then snap back on the February open
    assert out.values[4] > out.values[0]
    assert_allclose(out.values[5], 0.007, rtol=1e-15)


def test_fixed_mix_validation():
    eq = rser(np.zeros(10))
    with pytest.raises(ValueError, match="same calendar"):
        fixed_mix(eq, rser(np.zeros(10), start=dt.date(2016, 1, 4)), 0.5)
    with pytest.raises(ValueError, match="return series"):
        fixed_mix(eq, Series(eq.calendar, np.ones(10), UNIT_LEVEL), 0.5)
    with pytest.raises(ValueError, match="w_eq"):
        fixed_mix(eq, rser(np.zeros(10)), w_eq=1.2)


# ----------------------------------------------------------- sizing rule


# a stretch of the spread: (k, days, noisy); constant stretches hold the
# dyadic value k/256, so sums are exact and a window inside one has vol 0
STRETCHES = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(1, 40), st.booleans()),
    min_size=1, max_size=10,
)


@settings(max_examples=80, deadline=None)
@given(
    stretches=STRETCHES,
    L=st.integers(2, 30),
    targets=st.tuples(*[st.floats(0.001, 0.1)] * 3),
    theta_cap=st.floats(0.01, 2.0),
    ceiling=st.none() | st.floats(0.001, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_overlay_theta_is_capped_target_over_lagged_vol(
        stretches, L, targets, theta_cap, ceiling, seed):
    rng = np.random.default_rng(seed)
    vals = np.concatenate([
        rng.normal(0.0, 0.01, days) if noisy else np.full(days, k / 256.0)
        for k, days, noisy in stretches
    ])
    n = len(vals)
    if n <= L:
        vals = np.concatenate([vals, np.zeros(L + 1 - n)])
        n = L + 1
    spread = rser(vals)
    bench = benchmark_7030(rser(np.zeros(n)), rser(np.zeros(n)))
    path = classify(Series(spread.calendar, rng.choice([10.0, 15.0, 30.0], n), UNIT_LEVEL),
                    1, T13_22)
    assert len(path.labels) == n
    policy = OverlayPolicy(*targets, theta_cap=theta_cap, te_ceiling=ceiling)
    out = simulate_overlay(bench, spread, sizing_vol(spread, L), path, policy)

    by_label = dict(zip((LOW, NEUTRAL, HIGH), policy.effective_targets()))
    vol = rolling_vol(spread, L).values   # vol[k]: returns k..k+L-1
    assert np.all(out.theta[:L] == 0.0)
    for t in range(L, n):
        v = float(vol[t - L])                         # known the day before t
        target = by_label[int(path.labels[t - 1])]
        want = theta_cap if v == 0.0 else min(target / v, theta_cap)
        assert out.theta[t] == want
        if np.ptp(vals[t - L : t]) == 0.0:
            assert v == 0.0 and out.theta[t] == theta_cap


def test_policy_validation_and_effective_targets():
    with pytest.raises(ValueError, match="positive"):
        OverlayPolicy(0.0, 0.02, 0.05, 0.25)
    with pytest.raises(ValueError, match="theta_cap"):
        OverlayPolicy(0.005, 0.02, 0.05, theta_cap=0.0)
    with pytest.raises(ValueError, match="te_ceiling"):
        OverlayPolicy(0.005, 0.02, 0.05, 0.25, te_ceiling=-0.01)
    assert DYN.effective_targets() == (0.005, 0.02, 0.05)
    assert DYN.with_ceiling(0.01).effective_targets() == (0.005, 0.01, 0.01)
    assert DYN.with_ceiling(0.05).effective_targets() == (0.005, 0.02, 0.05)
    assert STA.is_static
    assert not DYN.is_static


# ------------------------------------------------------------ the overlay


def test_overlay_warmup_is_passive():
    # the window is read off vol's calendar: theta is 0 on exactly the first
    # L days, and the TE path's first full window ends on day 2L - 1
    bench, spread, path = synth_market()
    for L in (21, VOL):
        out = simulate_overlay(bench, spread, sizing_vol(spread, L), path, DYN)
        assert np.all(out.theta[:L] == 0.0) and np.all(out.theta[L:] > 0.0), L
        assert np.array_equal(out.portfolio[:L], bench.values[:L]), L
        assert out.te.calendar[0] == bench.calendar[2 * L - 1], L


def test_overlay_zero_spread_tracks_benchmark_exactly():
    bench, spread, path = synth_market()
    zero = Series(spread.calendar, np.zeros(len(spread)), UNIT_RETURN)
    out = simulate_overlay(bench, zero, sizing_vol(zero, VOL), path, STA)
    assert np.array_equal(out.portfolio, bench.values)


def test_overlay_identity_portfolio_minus_benchmark():
    bench, spread, path = synth_market(seed=1)
    out = simulate_overlay(bench, spread, sizing_vol(spread, VOL), path, DYN)
    lhs = out.portfolio - bench.values
    assert_allclose(lhs, out.theta * spread.values, atol=1e-14)


def test_overlay_theta_bounded_by_cap():
    for seed in range(3):
        bench, spread, path = synth_market(seed=seed, horizon=500)
        out = simulate_overlay(bench, spread, sizing_vol(spread, VOL), path, DYN)
        assert np.max(np.abs(out.theta)) <= DYN.theta_cap


def test_overlay_theta_reconstruction():
    # theta must equal min(target/vol, cap) with vol lagged one day
    bench, spread, path = synth_market(seed=2, horizon=400)
    out = simulate_overlay(bench, spread, sizing_vol(spread, VOL), path, STA)
    vol = rolling_vol(spread, VOL).values
    m = len(spread) - VOL
    want = np.minimum(STA.target_neutral / vol[:m], STA.theta_cap)
    assert_allclose(out.theta[VOL:], want, rtol=1e-14)


def test_overlay_low_vol_pins_at_cap():
    # alternating +-0.4% spread: annualized vol ~6.4%, below 2%/25%
    n = 200
    bench = benchmark_7030(rser(np.zeros(n)), rser(np.zeros(n)))
    spread = rser(0.004 * (-1.0) ** np.arange(n))
    out = simulate_overlay(bench, spread, sizing_vol(spread, VOL), None, STA)
    assert np.all(out.theta[VOL:] == STA.theta_cap)


def test_overlay_zero_vol_estimate_pins_at_cap():
    n = 100
    bench = benchmark_7030(rser(np.zeros(n)), rser(np.zeros(n)))
    vals = np.full(n, 0.00390625)  # dyadic constant: sample std exactly 0
    vals[70:] = 0.05
    spread = rser(vals)
    out = simulate_overlay(bench, spread, sizing_vol(spread, VOL), None, STA)
    assert np.all(out.theta[VOL:70] == STA.theta_cap)


def test_overlay_static_never_reads_regimes():
    bench, spread, path = synth_market(seed=3, horizon=400)
    vol = sizing_vol(spread, VOL)
    a = simulate_overlay(bench, spread, vol, path, STA)
    b = simulate_overlay(bench, spread, vol, None, STA)
    assert a.portfolio.tobytes() == b.portfolio.tobytes()


def test_overlay_constant_neutral_equals_static():
    bench, spread, _ = synth_market(seed=4, horizon=400)
    flat_vix = Series(bench.calendar, np.full(len(bench), 17.0), UNIT_LEVEL)
    neutral = classify(flat_vix, 1, T13_22)
    vol = sizing_vol(spread, VOL)
    dyn = simulate_overlay(bench, spread, vol, neutral, DYN)
    sta = simulate_overlay(bench, spread, vol, None, STA)
    assert dyn.portfolio.tobytes() == sta.portfolio.tobytes()


def test_overlay_decision_uses_previous_day_label():
    n = 130
    k = 100  # the gauge jumps at index k
    bench = benchmark_7030(rser(np.zeros(n)), rser(np.zeros(n)))
    rng = np.random.default_rng(5)
    spread = rser(0.02 * rng.standard_normal(n))
    vix_vals = np.full(n, 10.0)
    vix_vals[k:] = 30.0
    path = classify(Series(bench.calendar, vix_vals, UNIT_LEVEL), 1, T13_22)
    out = simulate_overlay(bench, spread, sizing_vol(spread, VOL), path, DYN)
    vol = rolling_vol(spread, VOL).values
    # day k still sizes off the Low label at k-1; day k+1 sees High
    cap = DYN.theta_cap
    assert out.theta[k] == pytest.approx(min(DYN.target_low / vol[k - VOL], cap), rel=1e-14)
    assert out.theta[k + 1] == pytest.approx(min(DYN.target_high / vol[k + 1 - VOL], cap),
                                             rel=1e-14)


def test_overlay_truncation_equivalence():
    # rebuilding everything on a prefix must reproduce the full run's
    # prefix: no decision sees data from after its own date
    panel, _ = synth_regime_panel(SynthParams(seed=6, horizon=600))
    def run(eq, bd, spread, vix):
        bench = benchmark_7030(eq, bd)
        path = classify(vix, DEFAULTS.windows["signal"], T13_22)
        return simulate_overlay(bench, spread, sizing_vol(spread, VOL), path, DYN)

    full = run(panel["BENCH_EQ"], panel["BENCH_BD"], panel["SPREAD"], panel["VIX"])
    for cut in (200, 401):
        cal = TradingCalendar(panel.calendar.days[:cut])
        part = run(
            panel["BENCH_EQ"].restrict(cal),
            panel["BENCH_BD"].restrict(cal),
            panel["SPREAD"].restrict(cal),
            panel["VIX"].restrict(cal),
        )
        assert np.array_equal(part.theta, full.theta[:cut])
        assert np.array_equal(part.portfolio, full.portfolio[:cut])


def test_overlay_validation():
    bench, spread, path = synth_market(horizon=200)
    vol = sizing_vol(spread, VOL)
    with pytest.raises(ValueError, match="warm-up"):
        sizing_vol(spread, 200)
    with pytest.raises(ValueError, match="return series"):
        sizing_vol(Series(spread.calendar, spread.values, UNIT_LEVEL), VOL)
    with pytest.raises(ValueError, match="return series"):
        simulate_overlay(Series(bench.calendar, bench.values, UNIT_LEVEL), spread, vol,
                         path, STA)
    with pytest.raises(ValueError, match="regime path"):
        simulate_overlay(bench, spread, vol, None, DYN)
    off = rser(np.zeros(200), start=dt.date(2030, 1, 7))
    with pytest.raises(ValueError, match="calendar"):
        simulate_overlay(bench, off, sizing_vol(off, VOL), path, STA)
    # a vol on another calendar, or leaving no day to size, or longer than
    # the benchmark, sizes nothing
    cal = bench.calendar
    one_day = Series(cal.suffix(len(cal) - 1), [0.1], UNIT_LEVEL)
    longer = Series(make_weekday_calendar(MON, len(cal) + 1), np.zeros(len(cal) + 1),
                    UNIT_LEVEL)
    for other in (sizing_vol(off, VOL), one_day, longer):
        with pytest.raises(ValueError, match="sizing vol"):
            simulate_overlay(bench, spread, other, path, STA)


def test_overlay_te_none_when_history_too_short():
    # a TE path needs two full 63-day windows of active days: one value at
    # 2 x 63 days gives no dispersion
    rng = np.random.default_rng(7)
    for n, te_len in ((65, None), (126, None), (127, 2)):
        bench = benchmark_7030(rser(np.zeros(n)), rser(np.zeros(n)))
        spread = rser(0.01 * rng.standard_normal(n))
        out = simulate_overlay(bench, spread, sizing_vol(spread, VOL), None, STA)
        assert (None if out.te is None else len(out.te)) == te_len, n
        assert np.all(out.theta[:VOL] == 0.0) and out.theta[VOL] > 0.0


# ------------------------------------------------------------ cap spectrum


def test_spectrum_default_caps():
    caps = DEFAULTS.caps
    assert len(caps) == 11
    assert caps[0] == 0.005
    assert caps[-1] == 0.05
    steps = np.diff(caps)
    assert_allclose(steps, steps[0], rtol=1e-12)


def test_spectrum_cap_at_top_matches_uncapped():
    bench, spread, path = synth_market(seed=8, horizon=700)
    vol = sizing_vol(spread, VOL)
    uncapped = simulate_overlay(bench, spread, vol, path, DYN)
    for cap in (0.05, 0.08, 1.0):
        capped = simulate_overlay(bench, spread, vol, path, DYN.with_ceiling(cap))
        assert capped.portfolio.tobytes() == uncapped.portfolio.tobytes()
        assert capped.theta.tobytes() == uncapped.theta.tobytes()


def test_spectrum_sigma_te_monotone():
    bench, spread, path = synth_market(seed=9, horizon=900)
    vol = sizing_vol(spread, VOL)
    runs = [simulate_overlay(bench, spread, vol, path, DYN.with_ceiling(c))
            for c in DEFAULTS.caps]
    sig = [float(np.std(r.te.values, ddof=1)) for r in runs]
    assert all(b >= a - 1e-15 for a, b in zip(sig, sig[1:]))
    # the tightest ceiling clips every target to one number
    assert sig[0] == min(sig)


def test_spectrum_targets_clipped_ex_ante():
    for cap in DEFAULTS.caps:
        eff = DYN.with_ceiling(cap).effective_targets()
        assert all(e <= cap + 1e-15 for e in eff)
        base = DYN.effective_targets()
        assert all(e <= b for e, b in zip(eff, base))

