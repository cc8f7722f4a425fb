import datetime as dt
import importlib
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dynte import regime
from dynte.regime import (
    _em_trial,
    _filter_smoother,
    AgreementReport,
    MSModel,
    Regime,
    RegimePath,
    RegimeThresholds,
    classify,
    fit_markov_switching,
    percentile_thresholds,
    signal_agreement,
    smoothed_high_prob,
    weekly_returns,
)
from dynte.rolling import WindowSpec
from dynte.timeseries import (
    UNIT_LEVEL,
    UNIT_RETURN,
    Series,
    TradingCalendar,
    make_weekday_calendar,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
MON = dt.date(2015, 1, 5)
T13_22 = RegimeThresholds(low=13.0, high=22.0)


def lser(values, start=MON):
    values = np.asarray(values, dtype=np.float64)
    return Series(make_weekday_calendar(start, len(values)), values, UNIT_LEVEL)


def rser(values, start=MON):
    values = np.asarray(values, dtype=np.float64)
    return Series(make_weekday_calendar(start, len(values)), values, UNIT_RETURN)


def friday_calendar(n, start=dt.date(2010, 1, 8)):
    return TradingCalendar(tuple(start + dt.timedelta(days=7 * i) for i in range(n)))


# ------------------------------------------------------------- thresholds


def test_thresholds_must_be_ordered():
    with pytest.raises(ValueError):
        RegimeThresholds(low=22.0, high=13.0)
    with pytest.raises(ValueError):
        RegimeThresholds(low=0.0, high=5.0)
    with pytest.raises(ValueError):
        RegimeThresholds(low=9.0, high=9.0)


def test_percentile_median_of_odd_sample():
    s = lser([10.0, 20.0, 30.0, 40.0, 50.0])
    t = percentile_thresholds(s, 0.5, 0.76)
    assert t.low == 30.0
    t = percentile_thresholds(s, 0.16, 0.5)
    assert t.high == 30.0


def test_percentile_constant_series_collapses():
    s = lser(np.full(40, 18.0))
    with pytest.raises(ValueError, match="coincide, at 18.0"):
        percentile_thresholds(s, 0.16, 0.76)


def test_percentile_fraction_validation():
    s = lser([10.0, 20.0, 30.0])
    for p_low, p_high in ((0.0, 0.5), (0.5, 1.0), (0.7, 0.3)):
        with pytest.raises(ValueError):
            percentile_thresholds(s, p_low, p_high)


def test_percentile_partition_fractions():
    rng = np.random.default_rng(0)
    n = 500
    s = lser(10.0 + 20.0 * rng.random(n))
    t = percentile_thresholds(s, 0.16, 0.76)
    path = classify(s, WindowSpec(1), t)
    frac = path.fractions()
    assert abs(frac[Regime.LOW] - 0.16) <= 1.0 / n
    assert abs(frac[Regime.NEUTRAL] - 0.60) <= 2.0 / n
    assert abs(frac[Regime.HIGH] - 0.24) <= 1.0 / n


# --------------------------------------------------------------- classify


def test_classify_threshold_bands():
    s = lser([12.0, 17.0, 25.0, 13.0, 22.0])
    path = classify(s, WindowSpec(1), T13_22)
    assert list(path.labels) == [
        Regime.LOW,
        Regime.NEUTRAL,
        Regime.HIGH,
        Regime.NEUTRAL,  # sitting exactly on a threshold stays Neutral
        Regime.NEUTRAL,
    ]


def test_classify_constant_high():
    s = lser(np.full(60, 30.0))
    path = classify(s, WindowSpec(21), T13_22)
    assert len(path.labels) == 40
    assert np.all(path.labels == int(Regime.HIGH))
    assert_allclose(path.signal.values, 30.0)


@settings(max_examples=100, deadline=None)
@given(
    low=st.integers(1, 400),
    gap=st.integers(1, 400),
    window=st.integers(1, 12),
    runs=st.lists(st.tuples(st.sampled_from(["low", "high", "other"]),
                            st.integers(0, 10), st.integers(0, 900)), max_size=10),
)
def test_signal_on_a_threshold_is_neutral(low, gap, window, runs):
    # levels are multiples of 1/8, so a window that sits on one level has a
    # mean exactly equal to it, threshold included
    lo, hi = low / 8.0, (low + gap) / 8.0
    vals = [lo] * window + [hi] * window
    for kind, extra, other in runs:
        level = {"low": lo, "high": hi, "other": other / 8.0}[kind]
        vals += [level] * (window + extra)
    path = classify(lser(vals), WindowSpec(window), RegimeThresholds(lo, hi))
    sig = path.signal.values
    on = (sig == lo) | (sig == hi)
    assert on[0] and on[window]
    assert np.all(path.labels[on] == int(Regime.NEUTRAL))
    assert np.all(path.labels[sig < lo] == int(Regime.LOW))
    assert np.all(path.labels[sig > hi] == int(Regime.HIGH))


def test_classify_no_lookahead():
    rng = np.random.default_rng(1)
    s = lser(15.0 + 6.0 * rng.standard_normal(300))
    full = classify(s, WindowSpec(21), T13_22)
    half = classify(s.restrict(TradingCalendar(s.calendar.dates[:150])), WindowSpec(21), T13_22)
    n = len(half.labels)
    assert np.array_equal(full.signal.calendar.days[:n], half.signal.calendar.days)
    assert np.array_equal(full.labels[:n], half.labels)


def test_classify_is_pointwise_and_idempotent():
    rng = np.random.default_rng(2)
    vals = 10.0 + 15.0 * rng.random(80)
    a = classify(lser(vals), WindowSpec(1), T13_22)
    b = classify(lser(vals), WindowSpec(1), T13_22)
    assert np.array_equal(a.labels, b.labels)
    # label at t is a function of the smoothed value at t alone
    perm = rng.permutation(80)
    c = classify(lser(vals[perm]), WindowSpec(1), T13_22)
    assert np.array_equal(c.labels, a.labels[perm])


def test_label_at_and_fractions():
    s = lser([12.0, 25.0, 25.0, 17.0])
    path = classify(s, WindowSpec(1), T13_22)
    assert list(path.labels) == [Regime.LOW, Regime.HIGH, Regime.HIGH, Regime.NEUTRAL]
    f = path.fractions()
    assert f[Regime.HIGH] == 0.5
    assert f[Regime.LOW] == 0.25


def test_regime_path_labels_follow_signal_and_are_read_only():
    sig = lser([12.0, 13.0, 17.0, 22.0, 25.0])
    path = RegimePath(sig, T13_22)
    assert list(path.labels) == [-1, 0, 0, 0, 1]
    assert path.labels.dtype == np.int8
    wider = RegimePath(sig, RegimeThresholds(20.0, 24.0))
    assert list(wider.labels) == [-1, -1, -1, 0, 1]
    assert path.signal is sig  # taken as it is, calendar and all
    for arr in (path.labels, path.signal.values):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    with pytest.raises(TypeError):
        RegimePath(sig, T13_22, np.zeros(5, dtype=np.int8))


# --------------------------------------------------------- weekly returns


def test_weekly_zero_and_compounding():
    assert weekly_returns(rser(np.zeros(5))).values[0] == 0.0
    got = weekly_returns(rser(np.full(5, 0.01)))
    assert_allclose(got.values[0], 1.01**5 - 1.0, rtol=1e-14)
    assert got.calendar.dates[0] == MON + dt.timedelta(days=4)  # Friday


def test_weekly_holiday_week_compounds_four():
    # drop the Wednesday of the second week
    days = [MON + dt.timedelta(days=k) for k in (0, 1, 2, 3, 4, 7, 8, 10, 11)]
    vals = np.full(9, 0.01)
    s = Series(TradingCalendar(tuple(days)), vals, UNIT_RETURN)
    got = weekly_returns(s)
    assert len(got) == 2
    assert_allclose(got.values[1], 1.01**4 - 1.0, rtol=1e-15)
    assert got.calendar.dates[1] == days[-1]


def test_weekly_partial_edge_weeks_kept():
    # start on a Thursday: first "week" holds two returns
    s = rser(np.full(7, 0.01), start=dt.date(2015, 1, 8))
    got = weekly_returns(s)
    assert len(got) == 2
    assert_allclose(got.values[0], 1.01**2 - 1.0, rtol=1e-15)


def loop_weekly_returns(daily):
    """The week-by-week loop `weekly_returns` replaced, kept as its
    reference: ISO (year, week) keys, compounded in date order."""
    dates = daily.calendar.dates
    vals = daily.values
    out_dates = []
    out_vals = []
    growth = 1.0
    cur = dates[0].isocalendar()[:2]
    for i, d in enumerate(dates):
        key = d.isocalendar()[:2]
        if key != cur:
            out_dates.append(dates[i - 1])
            out_vals.append(growth - 1.0)
            growth = 1.0
            cur = key
        growth *= 1.0 + vals[i]
    out_dates.append(dates[-1])
    out_vals.append(growth - 1.0)
    return tuple(out_dates), np.asarray(out_vals)


@settings(max_examples=60, deadline=None)
@given(start=st.dates(dt.date(1970, 1, 1), dt.date(2030, 12, 31)),
       steps=st.lists(st.sampled_from((1, 1, 1, 1, 2, 3, 5, 6, 9)), min_size=1,
                      max_size=600),
       seed=st.integers(0, 2**32 - 1))
def test_weekly_matches_the_iso_week_loop(start, steps, seed):
    # runs of weekdays with holidays and skipped weeks, across year ends
    # whose ISO week belongs to the other year
    days = np.busday_offset(np.datetime64(start, "D"), np.cumsum(steps) - 1,
                            roll="forward")
    vals = 0.03 * np.random.default_rng(seed).standard_normal(len(days))
    daily = Series(TradingCalendar(days), vals, UNIT_RETURN)
    got = weekly_returns(daily)
    want_dates, want_vals = loop_weekly_returns(daily)
    assert got.calendar.dates == want_dates
    assert got.values.tobytes() == want_vals.tobytes()  # the same products, bit for bit


def test_weekly_rejects_levels():
    with pytest.raises(ValueError, match="return series"):
        weekly_returns(lser([10.0, 11.0]))


# ------------------------------------------------------- markov switching


def planted_weekly(n, mu, sd, stay, seed):
    """Two-state chain with per-state Gaussian weekly returns."""
    rng = np.random.default_rng(seed)
    states = np.empty(n, dtype=np.intp)
    s = 0
    for t in range(n):
        states[t] = s
        if rng.random() >= stay[s]:
            s = 1 - s
    z = rng.standard_normal(n)
    vals = np.asarray(mu)[states] + np.asarray(sd)[states] * z
    return Series(friday_calendar(n), vals, UNIT_RETURN), states


def hmm(mu, var, transition, initial=(0.5, 0.5)) -> MSModel:
    return MSModel(mu=mu, var=var, transition=np.asarray(transition), initial=initial,
                   loglik=float("nan"), trace=(), converged=True, n_iter=0)


def test_ms_model_validation():
    with pytest.raises(ValueError, match="row-stochastic"):
        hmm((0.0, 0.0), (1.0, 2.0), [[0.9, 0.2], [0.1, 0.9]])
    with pytest.raises(ValueError, match="ordered"):
        hmm((0.0, 0.0), (2.0, 1.0), [[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(ValueError, match="positive"):
        hmm((0.0, 0.0), (0.0, 1.0), [[0.9, 0.1], [0.1, 0.9]])


def test_em_recovers_planted_parameters():
    mu = (0.03, -0.02)   # separated by 5 low-state stds
    sd = (0.01, 0.025)
    weekly, states = planted_weekly(1500, mu, sd, (0.95, 0.94), seed=3)
    m = fit_markov_switching(weekly, restarts=6, seed=0)
    assert m.converged
    # state 0 is the low-variance state by construction
    assert abs(m.mu[0] - mu[0]) <= 0.1 * abs(mu[0])
    assert abs(m.mu[1] - mu[1]) <= 0.1 * abs(mu[1])
    assert m.var[0] <= m.var[1]
    assert abs(math.sqrt(m.var[0]) - sd[0]) <= 0.15 * sd[0]
    assert abs(math.sqrt(m.var[1]) - sd[1]) <= 0.15 * sd[1]
    assert m.transition[0, 0] > 0.85 and m.transition[1, 1] > 0.85

    # well-separated data: the smoothed high-state probability flags at
    # least 90% of the true high weeks
    prob = smoothed_high_prob(m, weekly)
    hit = prob.values[states == 1] > 0.5
    assert np.mean(hit) >= 0.90
    assert np.all((prob.values >= 0.0) & (prob.values <= 1.0))


def test_em_trace_never_decreases():
    weekly, _ = planted_weekly(400, (0.02, -0.01), (0.008, 0.02), (0.9, 0.9), seed=4)
    m = fit_markov_switching(weekly, restarts=5, seed=1)
    trace = np.asarray(m.trace)
    floor = -1e-9 * max(1.0, abs(m.loglik))
    assert np.all(np.diff(trace) >= floor)
    assert m.loglik == trace[-1]
    assert m.n_iter == len(trace)


def test_em_deterministic_in_seed():
    weekly, _ = planted_weekly(300, (0.02, -0.01), (0.008, 0.02), (0.9, 0.9), seed=5)
    a = fit_markov_switching(weekly, restarts=4, seed=7)
    b = fit_markov_switching(weekly, restarts=4, seed=7)
    assert a.mu == b.mu and a.var == b.var and a.loglik == b.loglik


def test_em_single_gaussian_is_nested():
    # One-state data: the two-state optimum can only sit at or above the
    # single-Gaussian likelihood. Finite samples reward a split with a
    # genuine O(1) gain, so only the nesting direction is asserted.
    rng = np.random.default_rng(6)
    n = 400
    vals = 0.001 + 0.01 * rng.standard_normal(n)
    weekly = Series(friday_calendar(n), vals, UNIT_RETURN)
    m = fit_markov_switching(weekly, restarts=8, seed=2)
    v = float(np.var(vals))
    ll_single = -0.5 * n * (math.log(2.0 * math.pi * v) + 1.0)
    assert m.loglik >= ll_single - 1e-6


def test_em_input_validation():
    with pytest.raises(ValueError, match="constant"):
        fit_markov_switching(Series(friday_calendar(120), np.full(120, 0.01), UNIT_RETURN),
                             restarts=4, seed=0)
    with pytest.raises(ValueError, match="return series"):
        fit_markov_switching(lser(np.arange(120.0) + 10.0), restarts=4, seed=0)


def test_em_unconverged_flag():
    weekly, _ = planted_weekly(200, (0.02, -0.01), (0.008, 0.02), (0.9, 0.9), seed=8)
    m = fit_markov_switching(weekly, restarts=2, max_iter=2, seed=0)
    assert not m.converged
    assert m.n_iter <= 2


# ------------------------------------------------------ smoothed high prob


def test_smoothed_prob_identical_states_is_stationary():
    # the chain starts in its stationary distribution (4/7, 3/7)
    m = hmm((0.001, 0.001), (0.0001, 0.0001), [[0.7, 0.3], [0.4, 0.6]], (4 / 7, 3 / 7))
    weekly, _ = planted_weekly(100, (0.0, 0.0), (0.01, 0.01), (0.9, 0.9), seed=9)
    prob = smoothed_high_prob(m, weekly)
    assert_allclose(prob.values, 3 / 7, atol=1e-12)


def test_smoothed_prob_rejects_a_model_that_rules_out_a_week():
    # the chain never leaves its narrow state, which gives a week at 1.0 no
    # density at all
    m = hmm((0.0, 0.0), (1e-6, 1.0), [[1.0, 0.0], [0.0, 1.0]], (1.0, 0.0))
    weekly = Series(friday_calendar(3), np.array([0.0, 1.0, 0.0]), UNIT_RETURN)
    with pytest.raises(ValueError, match="zero likelihood"):
        smoothed_high_prob(m, weekly)


def test_smoothed_prob_pair_probabilities_sum_to_one():
    weekly, _ = planted_weekly(150, (0.02, -0.01), (0.008, 0.02), (0.9, 0.9), seed=10)
    m = fit_markov_switching(weekly, restarts=3, seed=3)
    _ll, filt, smooth, pairs = _filter_smoother(
        weekly.values, m.mu, m.var, np.asarray(m.transition), m.initial
    )
    assert_allclose(smooth.sum(axis=1), 1.0, atol=1e-10)
    assert_allclose(filt.sum(axis=1), 1.0, atol=1e-10)
    # one pair probability a week but the last; a state's pairs from it sum
    # to its smoothed weight before the last week
    assert pairs.shape == (2, 2)
    assert_allclose(pairs.sum(), 149.0, rtol=1e-12)
    assert_allclose(pairs.sum(axis=1), smooth[:-1].sum(axis=0), rtol=1e-12)


# ------------------------------------------- filter and smoother vs oracle


class Collapse(Exception):
    """An oracle trial hit a degenerate variance, an empty state or a
    non-finite log-likelihood."""


def sequential_filter_smoother(y, mu, var, P, pi):
    """The week-by-week Hamilton filter and Kim smoother that the scan in
    `_filter_smoother` replaced, kept as its reference. Emissions are in
    linear space, so a week that underflows both states raises Collapse."""
    T = len(y)
    filt = np.empty((T, 2))
    pred = np.empty((T, 2))
    c0 = 1.0 / math.sqrt(2.0 * math.pi * var[0])
    c1 = 1.0 / math.sqrt(2.0 * math.pi * var[1])
    inv0 = 0.5 / var[0]
    inv1 = 0.5 / var[1]
    p00, p01 = P[0, 0], P[0, 1]
    p10, p11 = P[1, 0], P[1, 1]

    pr0, pr1 = pi[0], pi[1]
    ll = 0.0
    for t in range(T):
        pred[t, 0] = pr0
        pred[t, 1] = pr1
        d0 = y[t] - mu[0]
        d1 = y[t] - mu[1]
        e0 = c0 * math.exp(-d0 * d0 * inv0)
        e1 = c1 * math.exp(-d1 * d1 * inv1)
        j0 = e0 * pr0
        j1 = e1 * pr1
        lik = j0 + j1
        if not lik > 0.0 or not math.isfinite(lik):
            raise Collapse
        f0 = j0 / lik
        f1 = j1 / lik
        filt[t, 0] = f0
        filt[t, 1] = f1
        ll += math.log(lik)
        pr0 = f0 * p00 + f1 * p10
        pr1 = f0 * p01 + f1 * p11

    smooth = np.empty((T, 2))
    pair = np.empty((T - 1, 2, 2))
    smooth[T - 1] = filt[T - 1]
    for t in range(T - 2, -1, -1):
        r0 = smooth[t + 1, 0] / pred[t + 1, 0] if pred[t + 1, 0] > 0.0 else 0.0
        r1 = smooth[t + 1, 1] / pred[t + 1, 1] if pred[t + 1, 1] > 0.0 else 0.0
        f0, f1 = filt[t, 0], filt[t, 1]
        pair[t, 0, 0] = f0 * p00 * r0
        pair[t, 0, 1] = f0 * p01 * r1
        pair[t, 1, 0] = f1 * p10 * r0
        pair[t, 1, 1] = f1 * p11 * r1
        smooth[t, 0] = pair[t, 0, 0] + pair[t, 0, 1]
        smooth[t, 1] = pair[t, 1, 0] + pair[t, 1, 1]
    return ll, filt, smooth, pair


SCAN_LENGTHS = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 64, 65, 255, 256, 257,
                1024, 1025, 1311, 8192, 8193]
unit = st.floats(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    T=st.sampled_from(SCAN_LENGTHS),
    seed=st.integers(0, 2**32 - 1),
    mu=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    log_var=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    stay=st.tuples(st.floats(0.001, 0.999), st.floats(0.001, 0.999)),
    pi0=unit,
    switching=st.booleans(),
)
# a sticky chain against data that keep favouring the other state: the
# unscaled prefix products would underflow within a few hundred weeks
@example(T=8193, seed=0, mu=(0.0, 0.0), log_var=(-1.0, 1.0), stay=(0.999, 0.999),
         pi0=0.5, switching=False)
def test_filter_smoother_matches_sequential_oracle(T, seed, mu, log_var, stay, pi0,
                                                   switching):
    sd = 0.02
    if switching:
        weekly, _ = planted_weekly(T, (0.5 * sd, -0.5 * sd), (0.5 * sd, 1.5 * sd),
                                   (0.9, 0.9), seed % 1000)
        y = weekly.values
    else:
        y = sd * np.random.default_rng(seed).standard_normal(T)
    mu = (sd * mu[0], sd * mu[1])
    var = (sd * sd * 10.0 ** log_var[0], sd * sd * 10.0 ** log_var[1])
    P = np.array([[stay[0], 1.0 - stay[0]], [1.0 - stay[1], stay[1]]])
    pi = (pi0, 1.0 - pi0)

    # a stacked call: the drawn start, the same model with its states
    # relabelled, and the drawn means and variances under swapped
    # persistence and initial weights; each matches the oracle on its own
    starts = [(mu, var, P, pi),
              (mu[::-1], var[::-1], P[::-1, ::-1], pi[::-1]),
              (mu, var, P[::-1, ::-1], pi[::-1])]
    stacked = _filter_smoother(y, *(np.array(a) for a in zip(*starts)))
    assert stacked[0].shape == (3,)
    for r, start in enumerate(starts):
        want = sequential_filter_smoother(y, *start)
        for got in (_filter_smoother(y, *start), [a[r] for a in stacked]):
            assert abs(got[0] - want[0]) <= 1e-9 * max(1.0, abs(want[0]))
            for g, w in zip(got[1:3], want[1:3]):
                assert g.shape == w.shape
                assert_allclose(g, w, rtol=0.0, atol=1e-12)
            # the pair sums against the oracle's per-week pairs summed over weeks
            assert got[3].shape == (2, 2)
            assert_allclose(got[3], want[3].sum(axis=0), rtol=1e-12, atol=0.0)


def test_outlier_week_no_longer_collapses_the_filter():
    # one week 50 high-state sds out underflows both states' linear densities
    mu, sd, stay = (0.02, -0.01), (0.01, 0.025), (0.95, 0.94)
    weekly, _ = planted_weekly(1200, mu, sd, stay, seed=0)
    y = weekly.values.copy()
    y[600] = mu[1] + 50.0 * sd[1]
    var = (sd[0] ** 2, sd[1] ** 2)
    P = np.array([[stay[0], 1.0 - stay[0]], [1.0 - stay[1], stay[1]]])
    with pytest.raises(Collapse):
        sequential_filter_smoother(y, mu, var, P, (0.5, 0.5))
    ll, filt, smooth, pairs = _filter_smoother(y, mu, var, P, (0.5, 0.5))
    assert math.isfinite(ll)
    for probs in (filt, smooth, pairs):
        assert np.all(np.isfinite(probs)) and np.all(probs >= 0.0)
    for probs in (filt, smooth):
        assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert_allclose(pairs.sum(), len(y) - 1, rtol=1e-12)
    assert smooth[600, 1] > 0.99  # the wider state takes the outlier

    m = fit_markov_switching(Series(weekly.calendar, y, UNIT_RETURN), restarts=4, seed=0)
    assert m.converged
    assert math.isfinite(m.loglik)


# ------------------------------------------- batched EM vs sequential oracle


def sequential_em_trial(y, mu, var, P, pi, tol, max_iter):
    """EM from one start, iteration by iteration: the per-start loop that
    the batched `_em_trial` replaced, kept as its reference."""
    trace = []
    prev = -np.inf
    converged = False
    fitted = (mu, var, P, pi)
    for it in range(max_iter):
        if min(var) < regime._VAR_FLOOR:
            raise Collapse
        ll, _filt, smooth, pairs = _filter_smoother(y, mu, var, P, pi)
        if not math.isfinite(ll):
            raise Collapse
        trace.append(ll)
        fitted = (mu, var, P, pi)
        if it > 0 and ll - prev < tol:
            converged = True
            break
        prev = ll

        w0 = smooth[:, 0].sum()
        w1 = smooth[:, 1].sum()
        if w0 <= 0.0 or w1 <= 0.0:
            raise Collapse
        mu = (
            float(np.dot(smooth[:, 0], y) / w0),
            float(np.dot(smooth[:, 1], y) / w1),
        )
        var = (
            float(np.dot(smooth[:, 0], (y - mu[0]) ** 2) / w0),
            float(np.dot(smooth[:, 1], (y - mu[1]) ** 2) / w1),
        )
        denom = smooth[:-1].sum(axis=0)
        if np.any(denom <= 0.0):
            raise Collapse
        P = pairs / denom[:, None]
        P = P / P.sum(axis=1, keepdims=True)
        pi = (float(smooth[0, 0]), float(smooth[0, 1]))
    mu, var, P, pi = fitted
    return mu, var, P, pi, trace, converged


def sequential_fit(weekly, restarts, tol=1e-8, max_iter=1000, seed=0):
    """Best of restarts, one start at a time, as `fit_markov_switching` did
    before it batched them. Returns the winner (mu, var, P, pi, trace,
    converged), low-variance state first, and the number of attempts that
    collapsed."""
    y = weekly.values
    m0 = float(np.mean(y))
    v0 = float(np.var(y))
    rng = np.random.default_rng(seed)
    best = None
    done = attempts = collapsed = 0
    while done < restarts and attempts < 5 * restarts:
        attempts += 1
        sd = math.sqrt(v0)
        mu = (m0 + 0.5 * sd * rng.standard_normal(), m0 + 0.5 * sd * rng.standard_normal())
        var = (v0 * rng.uniform(0.2, 1.0), v0 * rng.uniform(1.0, 5.0))
        stay0 = rng.uniform(0.85, 0.99)
        stay1 = rng.uniform(0.85, 0.99)
        P = np.array([[stay0, 1.0 - stay0], [1.0 - stay1, stay1]])
        try:
            out = sequential_em_trial(y, mu, var, P, (0.5, 0.5), tol, max_iter)
        except Collapse:
            collapsed += 1
            continue
        done += 1
        if best is None or out[4][-1] > best[4][-1]:
            best = out
    if best is None:
        raise ValueError("all EM restarts collapsed; no usable fit")
    mu, var, P, pi, trace, converged = best
    if var[1] < var[0]:
        mu, var, pi, P = mu[::-1], var[::-1], pi[::-1], P[::-1, ::-1]
    return (mu, var, P, pi, trace, converged), collapsed


def assert_same_fit(m, want):
    mu, var, P, pi, trace, converged = want
    assert (m.n_iter, m.converged, len(m.trace)) == (len(trace), converged, len(trace))
    for got, exp in ((m.mu, mu), (m.var, var), (m.transition, P), (m.loglik, trace[-1])):
        assert_allclose(got, exp, rtol=1e-12, atol=0.0)


def outlier_weekly(seed):
    """A 400-week planted series with one week 50 high-state sds out."""
    mu, sd = (0.02, -0.01), (0.01, 0.025)
    weekly, _ = planted_weekly(400, mu, sd, (0.95, 0.94), seed)
    y = weekly.values.copy()
    y[200] = mu[1] + 50.0 * sd[1]
    return Series(weekly.calendar, y, UNIT_RETURN)


@pytest.mark.parametrize("n,seed,restarts,max_iter", [
    (400, 0, 5, 1000),
    (400, 1, 5, 1000),
    (300, 2, 6, 1000),
    (600, 3, 4, 1000),
    (200, 8, 2, 2),
])
def test_batched_fit_matches_sequential_oracle(n, seed, restarts, max_iter):
    weekly, _ = planted_weekly(n, (0.02, -0.01), (0.008, 0.02), (0.9, 0.9), seed + 4)
    want, _collapsed = sequential_fit(weekly, restarts, max_iter=max_iter, seed=seed)
    m = fit_markov_switching(weekly, restarts=restarts, max_iter=max_iter, seed=seed)
    assert_same_fit(m, want)


def test_batched_fit_redraws_collapsed_attempts_like_the_oracle():
    weekly = outlier_weekly(0)
    want, collapsed = sequential_fit(weekly, 4, seed=0)
    assert collapsed > 0
    assert_same_fit(fit_markov_switching(weekly, restarts=4, seed=0), want)


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_every_attempt_collapses_on_a_lone_outlier(seed):
    # one state shrinks onto the outlier week in every attempt, where the
    # likelihood is singular
    weekly = outlier_weekly(seed)
    for fit in (sequential_fit, fit_markov_switching):
        with pytest.raises(ValueError, match="all EM restarts collapsed"):
            fit(weekly, 4, seed=0)


@pytest.mark.parametrize("budget", [1, 10**9])  # one start a batch; every start in one
def test_fit_does_not_depend_on_the_batch_size(monkeypatch, budget):
    weekly = outlier_weekly(0)
    want = fit_markov_switching(weekly, restarts=4, seed=0)
    monkeypatch.setattr(regime, "_BATCH_VALUES", budget)
    got = fit_markov_switching(weekly, restarts=4, seed=0)
    # each start's arithmetic is elementwise or per row, so the fit is exact
    assert (got.mu, got.var, got.initial, got.trace, got.converged) == \
        (want.mu, want.var, want.initial, want.trace, want.converged)
    assert np.array_equal(got.transition, want.transition)


def test_collapsed_start_leaves_the_batch_alone():
    weekly, _ = planted_weekly(300, (0.02, -0.01), (0.008, 0.02), (0.9, 0.9), seed=5)
    y = weekly.values
    v = float(np.var(y))
    P = np.array([[[0.9, 0.1], [0.1, 0.9]]] * 2)
    # the second start begins under the variance floor
    out = _em_trial(y, [[0.02, -0.01]] * 2, [[v, 2 * v], [v, 1e-13]], P, [[0.5, 0.5]] * 2,
                    1e-8, 1000)
    assert out[4][1] is None
    want = sequential_em_trial(y, (0.02, -0.01), (v, 2 * v), P[0], (0.5, 0.5), 1e-8, 1000)
    assert out[4][0] == pytest.approx(want[4], rel=1e-12) and out[5][0] == want[5]


def test_traced_fit_records_em_trial_spans(monkeypatch):
    # the benchmark's traced pass wraps regime._em_trial by name and reads
    # n_iter off item 4 of its result
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    for mod in [importlib.import_module("dynte")] + \
            [importlib.import_module(f"dynte.{m}") for m in spans.LAYERS]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj):
                monkeypatch.setattr(mod, attr, obj)  # restored after the test
    monkeypatch.setattr(Series, "restrict", Series.restrict)
    tracer = spans.Tracer()
    tracer.install()
    weekly, _ = planted_weekly(300, (0.02, -0.01), (0.008, 0.02), (0.9, 0.9), seed=5)
    regime.fit_markov_switching(weekly, restarts=3, seed=0)
    trials = [s for s in tracer.spans if s[spans.NAME] == "regime._em_trial"]
    assert trials
    # one span per batch; its n_iter counts the batch's starts
    assert sum(s[spans.ATTRS]["n_iter"] for s in trials) == 3


# -------------------------------------------------------- signal agreement


def make_path_and_prob(prob_of_signal):
    vals = np.array([10.0, 12.0, 25.0, 30.0, 17.0])
    path = classify(lser(vals), WindowSpec(1), T13_22)
    weekly_cal = path.signal.calendar
    prob = Series(weekly_cal, prob_of_signal(vals), UNIT_LEVEL)
    return path, prob


def test_agreement_monotone_prob():
    path, prob = make_path_and_prob(lambda v: v / 40.0)
    got = signal_agreement(path, prob)
    assert got.spearman == pytest.approx(1.0, abs=1e-14)
    assert got.concordance == 1.0


def test_agreement_anti_monotone_prob():
    path, prob = make_path_and_prob(lambda v: 1.0 - v / 40.0)
    got = signal_agreement(path, prob)
    assert got.spearman == pytest.approx(-1.0, abs=1e-14)
    assert got.concordance == 0.0  # every label contradicts the probability


def test_agreement_partial_concordance():
    path, _ = make_path_and_prob(lambda v: v)
    prob = Series(path.signal.calendar, np.array([0.6, 0.2, 0.9, 0.4, 0.1]), UNIT_LEVEL)
    got = signal_agreement(path, prob)
    assert got.concordance == 0.6


def test_agreement_unknown_week_errors():
    path, _ = make_path_and_prob(lambda v: v)
    off_cal = make_weekday_calendar(dt.date(2020, 1, 6), 5)
    prob = Series(off_cal, np.linspace(0.0, 1.0, 5), UNIT_LEVEL)
    with pytest.raises(ValueError, match="not on calendar"):
        signal_agreement(path, prob)
