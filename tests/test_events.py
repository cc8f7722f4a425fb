import datetime as dt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dynte.events import (
    find_trough,
    forward_return,
    omega_table,
    regret_table,
    vix_quintiles,
)
from dynte.cli import ConfigError, Run, _cell, cmd_sweep, load_config
from dynte.inference import newey_west_mean_test
from dynte.metrics import cagr, sharpe, summarize
from dynte.regime import classify, percentile_thresholds
from dynte.rolling import moving_average
from dynte.simulate import benchmark_7030, simulate_overlay, sizing_vol
from dynte.timeseries import (
    UNIT_LEVEL,
    UNIT_PRICE,
    UNIT_RETURN,
    Series,
    TradingCalendar,
    make_weekday_calendar,
    prices_from_returns,
)

MON = dt.date(2015, 1, 5)
DEFAULTS = load_config(None, {})


def lser(values, start=MON, unit=UNIT_LEVEL):
    values = np.asarray(values, dtype=np.float64)
    return Series(make_weekday_calendar(start, len(values)), values, unit)


def pser(values, start=MON):
    return lser(values, start, UNIT_PRICE)


def rser(values, start=MON):
    return lser(values, start, UNIT_RETURN)


# ---------------------------------------------------------------- quintiles


def test_quintiles_one_to_hundred():
    bounds, labels = vix_quintiles(lser(np.arange(1.0, 101.0)))
    assert_allclose(bounds, [20.8, 40.6, 60.4, 80.2], rtol=1e-13)
    for k in range(1, 6):
        assert int(np.sum(labels == k)) == 20


def test_quintiles_constant_all_bottom():
    bounds, labels = vix_quintiles(lser(np.full(50, 17.0)))
    assert np.all(labels == 1)
    assert np.all(bounds == 17.0)


def test_quintiles_tie_takes_lower_bucket():
    _, labels = vix_quintiles(lser([10.0, 10.0, 10.0, 10.0, 20.0]))
    assert list(labels) == [1, 1, 1, 1, 5]


def test_quintiles_partition_and_monotone_bounds():
    rng = np.random.default_rng(0)
    v = 10.0 + 20.0 * rng.random(503)
    bounds, labels = vix_quintiles(lser(v))
    assert int(np.sum([np.sum(labels == k) for k in range(1, 6)])) == 503
    assert np.all(np.diff(bounds) >= 0.0)
    counts = [int(np.sum(labels == k)) for k in range(1, 6)]
    assert max(counts) - min(counts) <= 503 % 5 + 1


def test_quintiles_need_five():
    with pytest.raises(ValueError, match="five"):
        vix_quintiles(lser([1.0, 2.0]))


# ----------------------------------------------------------- forward return


def test_forward_return_flat_prices():
    f = forward_return(pser(np.full(300, 50.0)), 21)
    assert np.all(f.values == 0.0)
    assert len(f) == 300 - 21


def test_forward_return_doubling_anchor():
    p = np.linspace(1.0, 2.0, 253)
    f = forward_return(pser(p), 252)
    assert len(f) == 1
    assert f.values[0] == pytest.approx(1.0, rel=1e-15)
    assert f.calendar[0] == MON


def test_forward_return_quarterly_annualization():
    p = np.ones(64)
    p[63] = 1.1
    f = forward_return(pser(p), 63)
    assert f.values[0] == pytest.approx(1.1**4 - 1.0, rel=1e-13)
    assert f.values[0] == pytest.approx(0.4641, abs=1e-4)


def test_forward_return_matches_daily_composition():
    rng = np.random.default_rng(1)
    rets = 0.01 * rng.standard_normal(400)
    prices = prices_from_returns(rser(rets))
    h = 42
    f = forward_return(prices, h)
    for t in (0, 57, 200, len(f) - 1):
        want = float(np.prod(1.0 + rets[t + 1 : t + h + 1])) ** (252 / h) - 1.0
        # prices lag returns by one slot: price[t] compounds rets[1..t]
        assert_allclose(f.values[t], want, rtol=1e-12)


def test_forward_return_validation():
    p = pser(np.full(30, 10.0))
    with pytest.raises(ValueError, match="horizon"):
        forward_return(p, 30)
    with pytest.raises(ValueError, match="horizon"):
        forward_return(p, 0)
    with pytest.raises(ValueError, match="price series"):
        forward_return(rser(np.zeros(30)), 5)


# --------------------------------------------------------------- omega table


def synth_vix_and_prices(seed, n=800):
    rng = np.random.default_rng(seed)
    vix = 16.0 + 5.0 * np.abs(rng.standard_normal(n))
    rets = 0.01 * rng.standard_normal(n)  # independent of the gauge
    prices = prices_from_returns(rser(rets))
    return lser(vix).restrict(prices.calendar), prices


def test_omega_constant_gauge_degenerate():
    n = 300
    vix = lser(np.full(n, 20.0))
    prices = pser(np.full(n, 50.0))
    with pytest.raises(ValueError, match="quintile"):
        omega_table(vix, prices, horizons=(21,))


def test_omega_tstat_matches_documented_construction():
    vix, prices = synth_vix_and_prices(seed=2)
    rep = omega_table(vix, prices, horizons=(21, 63))
    _, labels = vix_quintiles(vix)
    for i, h in enumerate((21, 63)):
        fwd = forward_return(prices, h)
        N = len(fwd)
        lab = labels[:N]
        n5 = int(np.sum(lab == 5))
        n1 = int(np.sum(lab == 1))
        z = np.zeros(N)
        z[lab == 5] = N / n5
        z[lab == 1] = -N / n1
        z *= fwd.values
        assert rep.t_stats[i] == newey_west_mean_test(z, bandwidth=h)
        # the weighting makes the mean of z the quintile-mean spread
        assert_allclose(rep.spreads[i], np.mean(z), rtol=1e-12)


def test_omega_counts_and_means():
    vix, prices = synth_vix_and_prices(seed=3)
    rep = omega_table(vix, prices, horizons=(21,))
    assert rep.counts[0].sum() == len(prices) - 21
    fwd = forward_return(prices, 21)
    _, labels = vix_quintiles(vix)
    lab = labels[: len(fwd)]
    assert rep.means[0, 0] == pytest.approx(float(np.mean(fwd.values[lab == 1])))
    assert rep.spreads[0] == pytest.approx(rep.means[0, 4] - rep.means[0, 0])


def test_omega_independent_gauge_size_control():
    hits = 0
    for seed in range(10):
        vix, prices = synth_vix_and_prices(seed=100 + seed)
        rep = omega_table(vix, prices, horizons=(21,))
        hits += abs(rep.t_stats[0]) < 2.0
    assert hits >= 8


def test_omega_alignment_error():
    vix, prices = synth_vix_and_prices(seed=4)
    short = Series(TradingCalendar(prices.calendar.days[:-1]),
                   prices.values[:-1], UNIT_PRICE)
    with pytest.raises(ValueError, match="calendar"):
        omega_table(vix, short, (21,))



# -------------------------------------------------------------------- trough


def bench_from_wealth(wealth, start=MON):
    w = np.asarray(wealth, dtype=np.float64)
    rets = w[1:] / w[:-1] - 1.0
    leg = rser(rets, start)
    return benchmark_7030(leg, rser(rets.copy(), start))


def test_trough_textbook_wealth_path():
    bench = bench_from_wealth([1.0, 0.8, 0.9, 0.7, 1.0])
    cal = bench.calendar
    t = find_trough(bench, (cal[0], cal[-1]))
    assert t.date == cal[2]
    assert t.drawdown == pytest.approx(0.30, rel=1e-12)


def test_trough_rising_wealth():
    bench = bench_from_wealth([1.0, 1.01, 1.02, 1.05, 1.08])
    cal = bench.calendar
    t = find_trough(bench, (cal[1], cal[-1]))
    assert t.date == cal[1]
    assert t.drawdown == pytest.approx(0.0, abs=1e-15)


def test_trough_tie_takes_earliest():
    bench = bench_from_wealth([1.0, 0.9, 0.9, 0.95])
    cal = bench.calendar
    t = find_trough(bench, (cal[0], cal[-1]))
    assert t.date == cal[0]


def test_trough_uses_full_history_peak():
    # the peak of 2 sits before the window, but drawdowns inside the
    # window are still measured against it
    bench = bench_from_wealth([1.0, 2.0, 1.9, 1.5, 1.8])
    cal = bench.calendar
    t = find_trough(bench, (cal[2], cal[-1]))
    assert t.date == cal[2]
    assert t.drawdown == pytest.approx(0.25, rel=1e-12)


def test_trough_empty_window():
    bench = bench_from_wealth([1.0, 0.9, 1.0])
    with pytest.raises(ValueError, match="no trading days"):
        find_trough(bench, (dt.date(2030, 1, 1), dt.date(2030, 2, 1)))


# -------------------------------------------------------------------- regret


def test_regret_identical_legs_is_zero():
    rng = np.random.default_rng(7)
    r = 0.01 * rng.standard_normal(400)
    eq = rser(r)
    bd = rser(r.copy())
    (entry,) = regret_table(eq, bd, [eq.calendar[50]], horizons=(63, 126, 252))
    for reg in entry.regret:
        assert abs(reg) < 1e-12


def test_regret_antisymmetric_in_allocations():
    rng = np.random.default_rng(8)
    eq = rser(0.012 * rng.standard_normal(400) + 0.0006)
    bd = rser(0.004 * rng.standard_normal(400) + 0.0001)
    (a,) = regret_table(eq, bd, [eq.calendar[30]], horizons=(63, 126))
    # swapping the legs swaps the mixes: 70/30 of (bd, eq) is 30/70 of (eq, bd)
    (b,) = regret_table(bd, eq, [eq.calendar[30]], horizons=(63, 126))
    assert a.stay == pytest.approx(b.derisk, rel=1e-12)
    assert a.derisk == pytest.approx(b.stay, rel=1e-12)
    assert a.regret == pytest.approx([-r for r in b.regret], rel=1e-9)


def test_regret_starts_day_after_trough():
    n = 40
    re = np.zeros(n)
    rb = np.zeros(n)
    i = 10
    re[i] = -0.5     # the trough day itself must not contaminate the entry
    re[i + 1] = 0.10
    rb[i + 1] = 0.02
    eq, bd = rser(re), rser(rb)
    (entry,) = regret_table(eq, bd, [eq.calendar[i]], horizons=(1,))
    assert entry.stay[0] == pytest.approx(0.7 * 0.10 + 0.3 * 0.02, rel=1e-12)
    assert entry.derisk[0] == pytest.approx(0.3 * 0.10 + 0.7 * 0.02, rel=1e-12)


def test_regret_insufficient_forward_data():
    eq = rser(np.zeros(100))
    bd = rser(np.zeros(100))
    (entry,) = regret_table(eq, bd, [eq.calendar[80]], horizons=(19, 20))
    assert entry.stay[0] == entry.derisk[0] == entry.regret[0] == 0.0
    assert entry.stay[1] is entry.derisk[1] is entry.regret[1] is None


# --------------------------------------------------------------------- sweep
# The sweep runs on the command line's Run (cli.cmd_sweep); these tests hold
# its table against the library calls it stands for.


def sweep_table(windows, seed=0, horizon=900):
    cfg = load_config(None, {"seed": seed, "synth": {"horizon": horizon},
                             "sweep_windows": list(windows)})
    run = Run(cfg, "sweep")
    (table,) = cmd_sweep(run)
    return run.market(), [dict(zip(table.header, map(_cell, r))) for r in zip(*table.columns)]


def test_sweep_single_window_reproduces_main_run(tmp_path):
    m, rows = sweep_table((21,))
    assert len(rows) == 1
    row = rows[0]

    sm = moving_average(m.vix, 21)
    th = percentile_thresholds(sm, *DEFAULTS.percentiles)
    path = classify(m.vix, 21, th)
    bench = benchmark_7030(m.eq, m.bd)
    vol_w = DEFAULTS.windows["vol"]
    res = simulate_overlay(bench, m.spread, sizing_vol(m.spread, vol_w), path,
                           DEFAULTS.dynamic_policy)
    assert row["window"] == "21"
    assert row["cagr"] == _cell(cagr(res.portfolio))
    assert row["sharpe"] == _cell(sharpe(res.portfolio, m.rf))
    assert row["cagr_over_maxdd"] == _cell(summarize(res.portfolio, m.rf).cagr_over_maxdd)
    assert (row["threshold_low"], row["threshold_high"]) == (_cell(th.low), _cell(th.high))


def test_sweep_static_baseline_shared(tmp_path):
    m, rows = sweep_table((5, 21), seed=2)
    bench = benchmark_7030(m.eq, m.bd)
    vol_w = DEFAULTS.windows["vol"]
    sres = simulate_overlay(bench, m.spread, sizing_vol(m.spread, vol_w), None,
                            DEFAULTS.static_policy)
    assert len(rows) == 2
    for row in rows:
        assert row["static_cagr"] == _cell(cagr(sres.portfolio))
        assert row["static_sharpe"] == _cell(sharpe(sres.portfolio, m.rf))
        assert float(row["excess_cagr"]) == pytest.approx(
            float(row["cagr"]) - float(row["static_cagr"]), abs=1e-18)
        passes_sharpe = float(row["sharpe"]) >= float(row["static_sharpe"])
        passes_calmar = float(row["cagr_over_maxdd"]) >= float(row["static_cagr_over_maxdd"])
        assert row["passes_sharpe"] == _cell(passes_sharpe)
        assert row["passes_calmar"] == _cell(passes_calmar)
        assert row["passes_both"] == _cell(passes_sharpe and passes_calmar)


def test_sweep_empty_windows():
    with pytest.raises(ConfigError, match="window") as exc:
        load_config(None, {"synth": {"horizon": 300}, "sweep_windows": []})
    assert exc.value.field == "sweep_windows"


def test_default_constants():
    assert DEFAULTS.omega_horizons == (21, 42, 63, 126, 252)
    assert DEFAULTS.regret_horizons == (63, 126, 252)
    assert DEFAULTS.sweep_windows == (1, 5, 21, 63)
