import datetime as dt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dynte.events import (
    DEFAULT_OMEGA_HORIZONS,
    DEFAULT_REGRET_HORIZONS,
    DEFAULT_SWEEP_WINDOWS,
    QuintileReport,
    RegretEntry,
    Trough,
    find_trough,
    forward_return,
    omega_table,
    regret_table,
    vix_quintiles,
    window_sweep,
)
from dynte.inference import newey_west_mean_test
from dynte.metrics import cagr, max_drawdown, sharpe
from dynte.regime import classify, percentile_thresholds
from dynte.rolling import WindowSpec, moving_average
from dynte.simulate import OverlayPolicy, benchmark_7030, simulate_overlay
from dynte.timeseries import (
    UNIT_LEVEL,
    UNIT_PRICE,
    UNIT_RETURN,
    Series,
    SynthParams,
    TradingCalendar,
    make_weekday_calendar,
    prices_from_returns,
    synth_regime_panel,
)

MON = dt.date(2015, 1, 5)


def lser(values, start=MON, unit=UNIT_LEVEL):
    values = np.asarray(values, dtype=np.float64)
    return Series(make_weekday_calendar(start, len(values)), values, unit)


def pser(values, start=MON):
    return lser(values, start, UNIT_PRICE)


def rser(values, start=MON):
    return lser(values, start, UNIT_RETURN)


# ---------------------------------------------------------------- quintiles


def test_quintiles_one_to_hundred():
    q = vix_quintiles(lser(np.arange(1.0, 101.0)))
    assert_allclose(q.boundaries, [20.8, 40.6, 60.4, 80.2], rtol=1e-13)
    for k in range(1, 6):
        assert int(np.sum(q.labels == k)) == 20


def test_quintiles_constant_all_bottom():
    q = vix_quintiles(lser(np.full(50, 17.0)))
    assert np.all(q.labels == 1)
    assert np.all(q.boundaries == 17.0)


def test_quintiles_tie_takes_lower_bucket():
    q = vix_quintiles(lser([10.0, 10.0, 10.0, 10.0, 20.0]))
    assert list(q.labels) == [1, 1, 1, 1, 5]


def test_quintiles_partition_and_monotone_bounds():
    rng = np.random.default_rng(0)
    v = 10.0 + 20.0 * rng.random(503)
    q = vix_quintiles(lser(v))
    assert int(np.sum([np.sum(q.labels == k) for k in range(1, 6)])) == 503
    assert np.all(np.diff(q.boundaries) >= 0.0)
    counts = [int(np.sum(q.labels == k)) for k in range(1, 6)]
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
    assert f.calendar.dates[0] == MON


def test_forward_return_quarterly_annualization():
    p = np.ones(64)
    p[63] = 1.1
    f = forward_return(pser(p), 63)
    assert f.values[0] == pytest.approx(1.1**4 - 1.0, rel=1e-13)
    assert f.values[0] == pytest.approx(0.4641, abs=1e-4)


def test_forward_return_matches_daily_composition():
    rng = np.random.default_rng(1)
    rets = 0.01 * rng.standard_normal(400)
    prices = prices_from_returns(rser(rets), initial=100.0)
    h = 42
    f = forward_return(prices, h, annualize=False)
    for t in (0, 57, 200, len(f) - 1):
        want = float(np.prod(1.0 + rets[t + 1 : t + h + 1]) - 1.0)
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
    prices = prices_from_returns(rser(rets), initial=100.0)
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
    q = vix_quintiles(vix)
    for i, h in enumerate((21, 63)):
        fwd = forward_return(prices, h)
        N = len(fwd)
        lab = q.labels[:N]
        n5 = int(np.sum(lab == 5))
        n1 = int(np.sum(lab == 1))
        z = np.zeros(N)
        z[lab == 5] = N / n5
        z[lab == 1] = -N / n1
        z *= fwd.values
        want = newey_west_mean_test(z, bandwidth=h)
        assert rep.t_stats[i] == want.t
        # the weighting makes the mean of z the quintile-mean spread
        assert_allclose(rep.spreads[i], want.mean, rtol=1e-12)


def test_omega_counts_and_means():
    vix, prices = synth_vix_and_prices(seed=3)
    rep = omega_table(vix, prices, horizons=(21,))
    assert rep.counts[0].sum() == len(prices) - 21
    fwd = forward_return(prices, 21)
    q = vix_quintiles(vix)
    lab = q.labels[: len(fwd)]
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
    short = Series(TradingCalendar(prices.calendar.dates[:-1]),
                   prices.values[:-1], UNIT_PRICE)
    with pytest.raises(ValueError, match="calendar"):
        omega_table(vix, short)


def test_omega_csv_layout():
    vix, prices = synth_vix_and_prices(seed=5)
    rep = omega_table(vix, prices, horizons=(21, 63))
    rows = rep.csv_rows()
    assert len(rows) == 2
    assert all(len(r) == len(QuintileReport.CSV_HEADER) for r in rows)
    assert rows[0][0] == 21 and rows[1][0] == 63
    assert rows[0][6] == rep.spreads[0]
    assert rows[1][8:13] == list(rep.counts[1])
    assert rows[1][13:] == list(rep.boundaries)


# -------------------------------------------------------------------- trough


def bench_from_wealth(wealth, start=MON):
    w = np.asarray(wealth, dtype=np.float64)
    rets = w[1:] / w[:-1] - 1.0
    leg = rser(rets, start)
    return benchmark_7030(leg, rser(rets.copy(), start))


def test_trough_textbook_wealth_path():
    bench = bench_from_wealth([1.0, 0.8, 0.9, 0.7, 1.0])
    cal = bench.calendar
    t = find_trough(bench, (cal.dates[0], cal.dates[-1]))
    assert t.date == cal.dates[2]
    assert t.drawdown == pytest.approx(0.30, rel=1e-12)
    assert t.vix is None


def test_trough_rising_wealth():
    bench = bench_from_wealth([1.0, 1.01, 1.02, 1.05, 1.08])
    cal = bench.calendar
    t = find_trough(bench, (cal.dates[1], cal.dates[-1]))
    assert t.date == cal.dates[1]
    assert t.drawdown == pytest.approx(0.0, abs=1e-15)


def test_trough_tie_takes_earliest():
    bench = bench_from_wealth([1.0, 0.9, 0.9, 0.95])
    cal = bench.calendar
    t = find_trough(bench, (cal.dates[0], cal.dates[-1]))
    assert t.date == cal.dates[0]


def test_trough_uses_full_history_peak():
    # the peak of 2 sits before the window, but drawdowns inside the
    # window are still measured against it
    bench = bench_from_wealth([1.0, 2.0, 1.9, 1.5, 1.8])
    cal = bench.calendar
    t = find_trough(bench, (cal.dates[2], cal.dates[-1]))
    assert t.date == cal.dates[2]
    assert t.drawdown == pytest.approx(0.25, rel=1e-12)


def test_trough_reports_gauge_level():
    bench = bench_from_wealth([1.0, 0.8, 0.9, 0.7, 1.0])
    cal = bench.calendar
    vix = Series(cal, np.array([15.0, 25.0, 48.0, 20.0]), UNIT_LEVEL)
    t = find_trough(bench, (cal.dates[0], cal.dates[-1]), vix=vix)
    assert t.date == cal.dates[2]
    assert t.vix == 48.0


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
    trough = Trough(date=eq.calendar.dates[50], drawdown=0.1, vix=None)
    (entry,) = regret_table(eq, bd, [("x", trough)], horizons=(63, 126, 252))
    for reg in entry.regret:
        assert abs(reg) < 1e-12


def test_regret_antisymmetric_in_allocations():
    rng = np.random.default_rng(8)
    eq = rser(0.012 * rng.standard_normal(400) + 0.0006)
    bd = rser(0.004 * rng.standard_normal(400) + 0.0001)
    trough = Trough(date=eq.calendar.dates[30], drawdown=0.2, vix=None)
    (a,) = regret_table(eq, bd, [("x", trough)], horizons=(63, 126))
    (b,) = regret_table(eq, bd, [("x", trough)], horizons=(63, 126), w_eq=0.30)
    assert a.stay == b.derisk
    assert a.derisk == b.stay
    assert all(ra == -rb for ra, rb in zip(a.regret, b.regret))


def test_regret_starts_day_after_trough():
    n = 40
    re = np.zeros(n)
    rb = np.zeros(n)
    i = 10
    re[i] = -0.5     # the trough day itself must not contaminate the entry
    re[i + 1] = 0.10
    rb[i + 1] = 0.02
    eq, bd = rser(re), rser(rb)
    trough = Trough(date=eq.calendar.dates[i], drawdown=0.5, vix=None)
    (entry,) = regret_table(eq, bd, [("x", trough)], horizons=(1,))
    assert entry.stay[0] == pytest.approx(0.7 * 0.10 + 0.3 * 0.02, rel=1e-12)
    assert entry.derisk[0] == pytest.approx(0.3 * 0.10 + 0.7 * 0.02, rel=1e-12)


def test_regret_insufficient_forward_data():
    eq = rser(np.zeros(100))
    bd = rser(np.zeros(100))
    trough = Trough(date=eq.calendar.dates[80], drawdown=0.1, vix=None)
    (entry,) = regret_table(eq, bd, [("x", trough)], horizons=(19, 20))
    assert entry.stay[0] == entry.derisk[0] == entry.regret[0] == 0.0
    assert entry.stay[1] is entry.derisk[1] is entry.regret[1] is None


def test_regret_csv_rows():
    rng = np.random.default_rng(9)
    eq = rser(0.01 * rng.standard_normal(300))
    bd = rser(0.003 * rng.standard_normal(300))
    trough = Trough(date=eq.calendar.dates[10], drawdown=0.12, vix=31.5)
    (entry,) = regret_table(eq, bd, [("gfc", trough)], horizons=(63, 126))
    rows = entry.csv_rows()
    assert len(rows) == 2
    assert rows[0][:4] == ["gfc", trough.date.isoformat(), 0.12, 31.5]
    assert rows[0][4] == 63 and rows[1][4] == 126
    assert rows[0][5:] == [entry.stay[0], entry.derisk[0], entry.regret[0]]
    assert len(RegretEntry.CSV_HEADER) == len(rows[0])


# --------------------------------------------------------------------- sweep


def sweep_inputs(seed=0, horizon=900):
    panel, _ = synth_regime_panel(SynthParams(seed=seed, horizon=horizon))
    return panel["VIX"], panel["BENCH_EQ"], panel["BENCH_BD"], panel["SPREAD"]


def test_sweep_single_window_reproduces_main_run():
    vix, eq, bd, spread = sweep_inputs()
    rep = window_sweep(vix, eq, bd, spread, windows=(21,))
    assert len(rep.rows) == 1
    row = rep.rows[0]

    sm = moving_average(vix, WindowSpec(21))
    th = percentile_thresholds(sm, 0.16, 0.76)
    path = classify(vix, WindowSpec(21), th)
    bench = benchmark_7030(eq, bd)
    res = simulate_overlay(bench, spread, path, OverlayPolicy.dynamic())
    assert row.cagr == cagr(res.portfolio)
    assert row.sharpe == sharpe(res.portfolio)
    assert row.max_drawdown == max_drawdown(res.portfolio)
    assert row.thresholds == th


def test_sweep_thresholds_refit_per_window():
    vix, eq, bd, spread = sweep_inputs(seed=1)
    rep = window_sweep(vix, eq, bd, spread, windows=DEFAULT_SWEEP_WINDOWS)
    lows = {r.thresholds.low for r in rep.rows}
    assert len(rep.rows) == 4
    assert len(lows) == 4  # each window smooths differently


def test_sweep_static_baseline_shared():
    vix, eq, bd, spread = sweep_inputs(seed=2)
    rep = window_sweep(vix, eq, bd, spread, windows=(5, 21))
    bench = benchmark_7030(eq, bd)
    sres = simulate_overlay(bench, spread, None, OverlayPolicy.static())
    assert rep.static_cagr == cagr(sres.portfolio)
    assert rep.static_sharpe == sharpe(sres.portfolio)
    for row in rep.rows:
        assert row.excess_cagr == pytest.approx(row.cagr - rep.static_cagr, abs=1e-18)
        assert row.passes_sharpe == (row.sharpe >= rep.static_sharpe)
        assert row.passes_both == (row.passes_sharpe and row.passes_calmar)


def test_sweep_empty_windows():
    vix, eq, bd, spread = sweep_inputs(horizon=300)
    with pytest.raises(ValueError, match="window"):
        window_sweep(vix, eq, bd, spread, windows=())


def test_sweep_csv_layout():
    vix, eq, bd, spread = sweep_inputs(seed=3, horizon=500)
    rep = window_sweep(vix, eq, bd, spread, windows=(1, 21))
    rows = rep.csv_rows()
    assert len(rows) == 2
    assert all(len(r) == len(rep.CSV_HEADER) for r in rows)
    assert rows[0][0] == 1 and rows[1][0] == 21
    assert rows[0][-3:] == [rep.rows[0].passes_sharpe, rep.rows[0].passes_calmar,
                            rep.rows[0].passes_both]


def test_default_constants():
    assert DEFAULT_OMEGA_HORIZONS == (21, 42, 63, 126, 252)
    assert DEFAULT_REGRET_HORIZONS == (63, 126, 252)
    assert DEFAULT_SWEEP_WINDOWS == (1, 5, 21, 63)
