"""End-to-end acceptance checks, one test per shipping criterion.

Criteria 1..8 are self-contained and must always pass. Criteria 9..13
reproduce headline numbers that need daily market history (equity, bond,
and fear-gauge series spanning roughly 2000..2026); they run only when
DYNTE_DATA_DIR points at a directory holding eq.csv, bd.csv, and vix.csv,
each with columns `date,close` (see README for the format).
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from dynte.cli import Run, cmd_sweep, load_config
from dynte.events import omega_table, find_trough, regret_table
from dynte.inference import (
    BootstrapSpec,
    circular_block_bootstrap,
    newey_west_mean_test,
    sharpe_equality_test,
)
from dynte.metrics import cagr, sharpe, summarize
from dynte.model import GovernanceParams, RegimeParams, jensen_advantage, optimal_theta
from dynte.regime import (
    Regime,
    classify,
    fit_markov_switching,
    smoothed_high_prob,
)
from dynte.rolling import (
    WindowSpec,
    moving_average,
    rolling_avg_pairwise_corr,
    rolling_corr,
    rolling_vol,
)
from dynte.simulate import benchmark_7030, simulate_overlay, sizing_vol
from dynte.timeseries import (
    UNIT_LEVEL,
    UNIT_RETURN,
    AssetPanel,
    Series,
    SynthParams,
    TradingCalendar,
    make_weekday_calendar,
    synth_regime_panel,
)
from oracles import brute_force_optimum, compound_active_return, make_theta_grid

DEFAULTS = load_config(None, {})
THRESHOLDS = DEFAULTS.thresholds
SIGNAL_W = DEFAULTS.windows["signal"]
VOL_W = DEFAULTS.windows["vol"]
SPEC_1000 = BootstrapSpec(block=63, iterations=1000, seed=0,
                          confidence=DEFAULTS.bootstrap_spec.confidence)

_DATA_DIR = os.environ.get("DYNTE_DATA_DIR")
_DATA_FILES = ("eq.csv", "bd.csv", "vix.csv")
_HAVE_DATA = _DATA_DIR is not None and all(
    (Path(_DATA_DIR) / f).is_file() for f in _DATA_FILES
)
needs_data = pytest.mark.skipif(
    not _HAVE_DATA,
    reason="needs eq.csv/bd.csv/vix.csv under DYNTE_DATA_DIR",
)


# ------------------------------------------------------------ criterion 1


def test_criterion_01_brute_force_optimum_matches_closed_form():
    rng = np.random.default_rng(1)
    step = 1e-3
    worst_gap = 0.0
    worst_val = 0.0
    for _ in range(10_000):
        ir = rng.uniform(0.05, 1.0)
        sigma = rng.uniform(0.08, 0.40)
        alpha = ir * sigma
        grid = make_theta_grid(alpha, sigma, step=step)
        best = brute_force_optimum(alpha, sigma, grid)
        worst_gap = max(worst_gap, abs(best - optimal_theta(alpha, sigma)))
        at_opt = compound_active_return(optimal_theta(alpha, sigma), alpha, sigma)
        worst_val = max(worst_val, abs(at_opt - 0.5 * (alpha / sigma) ** 2))
    assert worst_gap <= step
    assert worst_val <= 1e-12


# ------------------------------------------------------------ criterion 2


def test_criterion_02_jensen_advantage_sign_and_boundaries():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        p = RegimeParams(
            alpha=(rng.uniform(0.001, 0.25), rng.uniform(0.001, 0.25)),
            sigma=(rng.uniform(0.05, 0.50), rng.uniform(0.05, 0.50)),
            p=rng.uniform(0.0, 1.0),
        )
        assert jensen_advantage(p) >= 0.0
    for _ in range(200):
        a = rng.uniform(0.005, 0.1)
        s = rng.uniform(0.05, 0.4)
        # doubling both legs is exact in binary, so the ratios tie exactly
        equal_ir = RegimeParams(alpha=(a, 2 * a), sigma=(s, 2 * s),
                                p=rng.uniform(0.0, 1.0))
        assert jensen_advantage(equal_ir) == 0.0
        spread = RegimeParams(alpha=(a, 3 * a), sigma=(s, 2 * s),
                              p=float(rng.integers(0, 2)))
        assert jensen_advantage(spread) == 0.0


# ------------------------------------------------------------ criterion 3


def _fifty_year_run(seed):
    panel, _ = synth_regime_panel(SynthParams(horizon=12_600, seed=seed))
    bench = benchmark_7030(panel["BENCH_EQ"], panel["BENCH_BD"])
    path = classify(panel["VIX"], SIGNAL_W, THRESHOLDS)
    spread = panel["SPREAD"]
    return bench, spread, path


def test_criterion_03_dynamic_beats_static_on_planted_regimes():
    # generator defaults: IR 0.3 in the low state, 0.6 in the high state
    cagr_gap = []
    for seed in range(20):
        bench, spread, path = _fifty_year_run(seed)
        vol = sizing_vol(spread, VOL_W)
        dyn = simulate_overlay(bench, spread, vol, path, DEFAULTS.dynamic_policy, VOL_W)
        sta = simulate_overlay(bench, spread, vol, None, DEFAULTS.static_policy, VOL_W)
        cagr_gap.append(cagr(dyn.portfolio) - cagr(sta.portfolio))
        assert dyn.te is not None and sta.te is not None
        ratio = np.std(dyn.te.values, ddof=1) / np.std(sta.te.values, ddof=1)
        assert ratio > 2.0, f"seed {seed}: sigma(TE) ratio {ratio:.3f}"
    assert float(np.mean(cagr_gap)) > 0.0


# ------------------------------------------------------------ criterion 4


def test_criterion_04_te_cap_spectrum_shape():
    for seed in range(3):
        bench, spread, path = _fifty_year_run(seed)
        vol = sizing_vol(spread, VOL_W)
        sims = {}
        for cap in (*DEFAULTS.caps, 0.08, 0.5, None):
            pol = DEFAULTS.dynamic_policy.with_ceiling(cap)
            sims[cap] = simulate_overlay(bench, spread, vol, path, pol, VOL_W)
        sig = [np.std(sims[c].te.values, ddof=1) for c in DEFAULTS.caps]
        assert np.all(np.diff(sig) >= 0.0)
        free = sims[None].portfolio.tobytes()
        for cap in (0.05, 0.08, 0.5):
            assert sims[cap].portfolio.tobytes() == free
            assert sims[cap].theta.tobytes() == sims[None].theta.tobytes()
        if seed == 0:
            sharpes = [sharpe(sims[c].portfolio, 0.0) for c in DEFAULTS.caps]
            widths = [b.width for b in circular_block_bootstrap(
                np.array([sims[c].portfolio for c in DEFAULTS.caps]), SPEC_1000)]
            assert max(sharpes) - min(sharpes) < min(widths)


# ------------------------------------------------------------ criterion 5


def _brute_stat(op, vals, other, L, mp):
    n = len(vals[0]) if op == "pairwise" else len(vals)
    out = []
    for j in range(mp - 1, n):
        lo = max(0, j - L + 1)
        if op == "ma":
            out.append(np.mean(vals[lo : j + 1]))
        elif op == "vol":
            out.append(np.std(vals[lo : j + 1], ddof=1) * math.sqrt(252.0))
        elif op == "corr":
            out.append(np.corrcoef(vals[lo : j + 1], other[lo : j + 1])[0, 1])
        else:
            cs = [np.corrcoef(a[lo : j + 1], b[lo : j + 1])[0, 1]
                  for k, a in enumerate(vals) for b in vals[k + 1 :]]
            out.append(np.mean(cs))
    return np.asarray(out)


def test_criterion_05_rolling_stats_match_brute_force():
    rng = np.random.default_rng(5)
    ops = rng.choice(["ma", "vol", "corr", "pairwise"], size=1000,
                     p=[0.3, 0.3, 0.25, 0.15])
    for op in ops:
        n = int(rng.integers(25, 260))
        L = int(rng.integers(2, min(n, 64)))
        floor = 1 if op == "ma" else 2
        mp = int(rng.integers(floor, L + 1)) if rng.random() < 0.4 else L
        w = WindowSpec(L, min_periods=mp)
        cal = make_weekday_calendar(np.datetime64("2010-01-04").item(), n)
        x = rng.standard_normal(n)
        if op == "ma":
            got = moving_average(Series(cal, x, UNIT_LEVEL), w)
            want = _brute_stat("ma", x, None, L, mp)
        elif op == "vol":
            got = rolling_vol(Series(cal, 0.01 * x, UNIT_RETURN), w)
            want = _brute_stat("vol", 0.01 * x, None, L, mp)
        elif op == "corr":
            y = rng.standard_normal(n)
            got = rolling_corr(Series(cal, x, UNIT_LEVEL),
                               Series(cal, y, UNIT_LEVEL), w)
            want = _brute_stat("corr", x, y, L, mp)
        else:
            cols = [0.01 * x, 0.01 * rng.standard_normal(n),
                    0.01 * rng.standard_normal(n)]
            panel = AssetPanel(cal, {f"S{i}": Series(cal, c, UNIT_RETURN)
                                     for i, c in enumerate(cols)})
            got = rolling_avg_pairwise_corr(panel, w)
            want = _brute_stat("pairwise", cols, None, L, mp)
        np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------ criterion 6


def test_criterion_06_inference_calibration():
    rng = np.random.default_rng(6)

    draws = 0.01 * rng.standard_normal((1000, 5000))
    inside = sum(abs(newey_west_mean_test(row, bandwidth=21).t) < 2.0
                 for row in draws)
    assert inside >= 930, f"NW size control: {inside}/1000 inside"

    mu, sd = 0.0003, 0.01
    true_sharpe = mu * 252.0 / (sd * math.sqrt(252.0))
    covered = 0
    for _ in range(500):
        r = mu + sd * rng.standard_normal(2000)
        (boot,) = circular_block_bootstrap(r[None, :], SPEC_1000)
        covered += boot.ci_lo <= true_sharpe <= boot.ci_hi
    assert 0.92 * 500 <= covered <= 0.98 * 500, f"coverage {covered}/500"

    # per-period Sharpe 0.2 vs 1.0 at matched vol, the units the test uses
    rejections = 0
    for _ in range(300):
        a = 0.2 * sd + sd * rng.standard_normal(5000)
        b = 1.0 * sd + sd * rng.standard_normal(5000)
        rejections += sharpe_equality_test(a, b).p < 0.05
    assert rejections >= 270, f"JK power: {rejections}/300"

    x = 0.001 + 0.01 * rng.standard_normal(4000)
    assert abs(sharpe_equality_test(x, 2.0 * x).z) < 1e-8


# ------------------------------------------------------------ criterion 7


def _planted_weekly(n, seed):
    rng = np.random.default_rng(seed)
    mu = (0.03, -0.02)
    sd = (0.01, 0.025)
    stay = (0.95, 0.94)
    states = np.empty(n, dtype=np.int64)
    states[0] = 0
    for t in range(1, n):
        s = states[t - 1]
        states[t] = s if rng.random() < stay[s] else 1 - s
    vals = np.array([mu[s] + sd[s] * rng.standard_normal() for s in states])
    fridays = make_weekday_calendar(np.datetime64("1990-01-05").item(), 5 * n)
    cal = TradingCalendar(fridays.dates[4::5])
    return Series(cal, vals, UNIT_RETURN), states


def test_criterion_07_markov_switching_em():
    for seed in range(10):
        weekly, states = _planted_weekly(1200, seed)
        m = fit_markov_switching(weekly, restarts=4, seed=seed)
        trace = np.asarray(m.trace)
        floor = -1e-9 * max(1.0, abs(trace[-1]))
        assert np.all(np.diff(trace) >= floor), f"seed {seed}: LL decreased"
        prob = smoothed_high_prob(m, weekly)
        concordance = float(np.mean((prob.values > 0.5) == (states == 1)))
        assert concordance >= 0.90, f"seed {seed}: concordance {concordance:.3f}"


# ------------------------------------------------------------ criterion 8


def test_criterion_08_truncation_leaves_history_unchanged():
    params = SynthParams(horizon=1260, seed=11)
    panel, _ = synth_regime_panel(params)
    def run(eq, bd, spread, vix):
        bench = benchmark_7030(eq, bd)
        path = classify(vix, SIGNAL_W, THRESHOLDS)
        return simulate_overlay(bench, spread, sizing_vol(spread, VOL_W), path,
                                DEFAULTS.dynamic_policy, VOL_W)

    eq, bd = panel["BENCH_EQ"], panel["BENCH_BD"]
    spread, vix = panel["SPREAD"], panel["VIX"]
    full = run(eq, bd, spread, vix)

    rng = np.random.default_rng(8)
    for cut in rng.integers(150, 1261, size=100):
        cal = TradingCalendar(panel.calendar.dates[:cut])
        part = run(eq.restrict(cal), bd.restrict(cal),
                   spread.restrict(cal), vix.restrict(cal))
        assert np.array_equal(part.theta, full.theta[:cut])
        assert np.array_equal(part.portfolio, full.portfolio[:cut])
        assert part.te is not None
        m = len(part.te)
        assert np.array_equal(part.te.values, full.te.values[:m])


# ----------------------------------------------------- conditional tier --


def _real_config(tmp_path):
    d = Path(_DATA_DIR)
    cfg = {
        "version": 1,
        "out": str(tmp_path / "out"),
        "svg": False,
        "data": {
            "eq": {"path": str(d / "eq.csv"), "column": "close"},
            "bd": {"path": str(d / "bd.csv"), "column": "close"},
            "vix": {"path": str(d / "vix.csv"), "column": "close"},
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return load_config(str(path), {})


@needs_data
def test_criterion_09_headline_metrics_table(tmp_path):
    cfg = _real_config(tmp_path)
    run = Run(cfg, "acceptance")
    rf = run.market().rf
    sta = summarize(run.static.portfolio, rf, te=run.static.te, smoothed_vix=run.path.signal)
    dyn = summarize(run.dynamic.portfolio, rf, te=run.dynamic.te, smoothed_vix=run.path.signal)
    assert sta.cagr == pytest.approx(0.0980, abs=0.005)
    assert dyn.cagr == pytest.approx(0.1033, abs=0.005)
    assert sta.te_sigma == pytest.approx(0.0050, abs=0.0025)
    assert dyn.te_sigma == pytest.approx(0.0151, abs=0.0025)
    assert sta.te_level == pytest.approx(0.0208, abs=0.003)
    assert dyn.te_level == pytest.approx(0.0265, abs=0.003)


@needs_data
def test_criterion_10_quintile_spread_and_decay(tmp_path):
    cfg = _real_config(tmp_path)
    market = Run(cfg, "acceptance").market()
    rep = omega_table(market.vix_full, market.eq_prices,
                      horizons=(21, 63, 126, 252))
    assert rep.spreads[0] == pytest.approx(0.128, abs=0.03)
    assert rep.t_stats[0] == pytest.approx(2.05, abs=0.5)
    assert rep.spreads[1] >= rep.spreads[2] >= rep.spreads[3]


@needs_data
def test_criterion_11_crisis_regret(tmp_path):
    import datetime as dt

    cfg = _real_config(tmp_path)
    market = Run(cfg, "acceptance").market()
    bench = benchmark_7030(market.eq, market.bd)
    expected = {
        "gfc": (dt.date(2007, 10, 1), dt.date(2009, 6, 30), 0.254),
        "covid": (dt.date(2020, 1, 1), dt.date(2020, 6, 30), 0.296),
        "tightening_2022": (dt.date(2022, 1, 1), dt.date(2022, 12, 31), 0.088),
    }
    troughs = [(name, find_trough(bench, (lo, hi), market.vix))
               for name, (lo, hi, _) in expected.items()]
    entries = regret_table(market.eq, market.bd, troughs, horizons=(252,))
    for entry in entries:
        want = expected[entry.name][2]
        assert entry.regret[0] == pytest.approx(want, abs=0.02), entry.name


@needs_data
def test_criterion_12_cap_spectrum_on_market_data(tmp_path):
    cfg = _real_config(tmp_path)
    run = Run(cfg, "acceptance")
    sharpes, sigs = [], []
    for cap in cfg.caps:
        sim = run.overlay(cfg.dynamic_policy.with_ceiling(cap))
        sharpes.append(sharpe(sim.portfolio, 0.0))
        sigs.append(np.std(sim.te.values, ddof=1))
    assert max(sharpes) - min(sharpes) <= 0.02
    assert max(sigs) / min(sigs) >= 8.0


@needs_data
def test_criterion_13_signal_window_sweep(tmp_path):
    cfg = _real_config(tmp_path)
    assert cfg.sweep_windows == (1, 5, 21, 63)
    (table,) = cmd_sweep(Run(cfg, "acceptance"))
    header, *rows = (line.split(",") for line in table.read_text().splitlines())
    rows = [dict(zip(header, r)) for r in rows]
    for row in rows:
        assert float(row["excess_cagr"]) > 0.0, f"window {row['window']}"
    row21 = next(r for r in rows if r["window"] == "21")
    assert row21["passes_both"] == "true"
