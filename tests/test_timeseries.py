import datetime as dt

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dynte.timeseries import (
    STATE_HIGH,
    STATE_LOW,
    AssetPanel,
    Series,
    SynthParams,
    TradingCalendar,
    UNIT_LEVEL,
    UNIT_PRICE,
    UNIT_RETURN,
    ingest_csv,
    intersect_calendars,
    make_weekday_calendar,
    prices_from_returns,
    returns_from_prices,
    synth_regime_panel,
)

MON = dt.date(2015, 1, 5)


def pser(values, start=MON):
    vals = np.asarray(values, dtype=float)
    return Series(make_weekday_calendar(start, len(vals)), vals, UNIT_PRICE)


# ---------------------------------------------------------------- calendar


def test_calendar_rejects_weekend():
    with pytest.raises(ValueError, match="weekend"):
        TradingCalendar((dt.date(2015, 1, 3),))  # a Saturday


def test_calendar_rejects_disorder_and_duplicates():
    d1, d2 = dt.date(2015, 1, 5), dt.date(2015, 1, 6)
    with pytest.raises(ValueError):
        TradingCalendar((d2, d1))
    with pytest.raises(ValueError):
        TradingCalendar((d1, d1))


def test_calendar_rejects_empty():
    with pytest.raises(ValueError):
        TradingCalendar(())


def test_calendar_index_and_contains():
    cal = make_weekday_calendar(MON, 10)
    assert len(cal) == 10
    assert cal.index(cal[3]) == 3
    assert cal[0] in cal
    assert dt.date(2015, 1, 4) not in cal
    with pytest.raises(ValueError, match="not on calendar"):
        cal.index(dt.date(2030, 1, 1))


def test_calendar_accepts_iso_strings():
    cal = make_weekday_calendar(MON, 5)
    assert cal.index("2015-01-07") == 2
    assert "2015-01-07" in cal


def test_make_weekday_calendar_skips_weekend_start():
    cal = make_weekday_calendar(dt.date(2015, 1, 3), 6)  # Saturday start
    assert cal[0] == MON
    assert all(d.weekday() < 5 for d in cal.dates)


def test_suffix_and_is_suffix_of():
    cal = make_weekday_calendar(MON, 8)
    tail = cal.suffix(3)
    assert len(tail) == 5
    assert tail.is_suffix_of(cal)
    assert not cal.is_suffix_of(tail)
    with pytest.raises(ValueError):
        cal.suffix(8)


def test_window_bounds_inclusive():
    cal = make_weekday_calendar(MON, 10)
    sub = cal.window(cal[2], cal[5])
    assert sub.dates == cal.dates[2:6]
    with pytest.raises(ValueError, match="no calendar dates"):
        cal.window(dt.date(2030, 1, 1), dt.date(2030, 2, 1))


def test_intersect_calendars():
    a = make_weekday_calendar(MON, 10)
    b = a.suffix(4)
    assert intersect_calendars([a, b]).dates == b.dates
    c = make_weekday_calendar(dt.date(2030, 1, 7), 5)
    with pytest.raises(ValueError, match="empty intersection"):
        intersect_calendars([a, c])


# ------------------------------------------------------------------ series


def test_series_length_mismatch():
    cal = make_weekday_calendar(MON, 3)
    with pytest.raises(ValueError, match="length mismatch"):
        Series(cal, np.zeros(4), UNIT_RETURN)


def test_series_unit_validation():
    cal = make_weekday_calendar(MON, 2)
    with pytest.raises(ValueError, match="positive"):
        Series(cal, [100.0, -1.0], UNIT_PRICE)
    with pytest.raises(ValueError, match="> -1"):
        Series(cal, [0.01, -1.0], UNIT_RETURN)
    with pytest.raises(ValueError, match="unknown unit"):
        Series(cal, [1.0, 2.0], "bogus")
    # level series may carry NaN markers
    s = Series(cal, [np.nan, 3.0], UNIT_LEVEL)
    assert np.isnan(s.values[0])


def test_series_values_are_frozen():
    s = pser([100.0, 101.0, 102.0])
    with pytest.raises(ValueError):
        s.values[0] = 50.0


def test_series_restrict_and_at():
    s = pser([100.0, 101.0, 102.0, 103.0])
    sub = s.restrict(s.calendar.suffix(2))
    assert_array_equal(sub.values, [102.0, 103.0])
    assert s.at(s.calendar[1]) == 101.0


def test_panel_requires_shared_calendar():
    a = pser([1.0, 2.0, 3.0])
    b = pser([1.0, 2.0], start=MON)
    with pytest.raises(ValueError, match="shared calendar"):
        AssetPanel(a.calendar, {"A": a, "B": b})


def test_panel_unknown_symbol_is_named():
    a = pser([1.0, 2.0, 3.0])
    panel = AssetPanel(a.calendar, {"A": a})
    assert_array_equal(panel["A"].values, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="'C' not in panel"):
        panel["C"]


# ----------------------------------------------------------- price/return


def test_returns_from_prices_basics():
    assert_allclose(returns_from_prices(pser([100.0, 110.0])).values, [0.10])
    assert_allclose(
        returns_from_prices(pser([100.0, 100.0, 100.0])).values, [0.0, 0.0]
    )
    assert_allclose(
        returns_from_prices(pser([100.0, 50.0, 100.0])).values, [-0.5, 1.0]
    )


def test_returns_calendar_is_one_step_suffix():
    p = pser([100.0, 101.0, 103.0])
    r = returns_from_prices(p)
    assert r.calendar.dates == p.calendar.dates[1:]
    assert r.unit == UNIT_RETURN


def test_price_return_round_trip():
    rng = np.random.default_rng(11)
    p0 = 100.0 * np.cumprod(1.0 + 0.02 * rng.standard_normal(300))
    prices = pser(p0)
    r = returns_from_prices(prices)
    back = prices_from_returns(r, initial=p0[0])
    assert_allclose(back.values, p0[1:], rtol=1e-10)


def test_prices_from_returns_rejects_bad_initial():
    r = returns_from_prices(pser([100.0, 101.0]))
    with pytest.raises(ValueError):
        prices_from_returns(r, initial=0.0)


# --------------------------------------------------------------- ingestion


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_ingest_round_trip(tmp_path):
    p = write_csv(
        tmp_path / "a.csv",
        "date,AAA,BBB\n2015-01-05,100,50\n2015-01-06,101,51\n2015-01-07,99,52\n",
    )
    res = ingest_csv(p)
    assert res.n_dropped == 0
    assert res.panel.symbols == ("AAA", "BBB")
    assert len(res.panel.calendar) == 3
    assert_array_equal(res.panel["BBB"].values, [50.0, 51.0, 52.0])


def test_ingest_drops_incomplete_rows(tmp_path):
    p = write_csv(
        tmp_path / "b.csv",
        "date,AAA,BBB\n2015-01-05,100,50\n2015-01-06,101,\n2015-01-07,99,52\n",
    )
    res = ingest_csv(p)
    assert res.n_dropped == 1
    assert res.dropped_dates == (dt.date(2015, 1, 6),)
    assert len(res.panel.calendar) == 2


def test_ingest_column_subset_ignores_other_gaps(tmp_path):
    p = write_csv(
        tmp_path / "c.csv",
        "date,AAA,BBB\n2015-01-05,100,50\n2015-01-06,101,\n2015-01-07,99,52\n",
    )
    res = ingest_csv(p, columns=["AAA"])
    assert res.n_dropped == 0
    assert res.panel.symbols == ("AAA",)


def test_ingest_column_order_insensitive(tmp_path):
    p1 = write_csv(
        tmp_path / "d1.csv", "date,AAA,BBB\n2015-01-05,100,50\n2015-01-06,101,51\n"
    )
    p2 = write_csv(
        tmp_path / "d2.csv", "date,BBB,AAA\n2015-01-05,50,100\n2015-01-06,51,101\n"
    )
    r1 = ingest_csv(p1, columns=["AAA", "BBB"])
    r2 = ingest_csv(p2, columns=["AAA", "BBB"])
    for sym in ("AAA", "BBB"):
        assert_array_equal(r1.panel[sym].values, r2.panel[sym].values)


def test_ingest_error_messages_name_the_row(tmp_path):
    p = write_csv(
        tmp_path / "e.csv", "date,AAA\n2015-01-05,100\nnot-a-date,101\n"
    )
    with pytest.raises(ValueError, match=r"e\.csv:3.*malformed date"):
        ingest_csv(p)
    p = write_csv(tmp_path / "f.csv", "date,AAA\n2015-01-05,100\n2015-01-06,abc\n")
    with pytest.raises(ValueError, match=r"f\.csv:3.*non-numeric.*AAA"):
        ingest_csv(p)


def test_ingest_duplicate_date(tmp_path):
    p = write_csv(
        tmp_path / "g.csv", "date,AAA\n2015-01-05,100\n2015-01-05,101\n"
    )
    with pytest.raises(ValueError, match="duplicate date"):
        ingest_csv(p)


def test_ingest_unsorted_rows_accepted(tmp_path):
    p = write_csv(
        tmp_path / "h.csv", "date,AAA\n2015-01-06,101\n2015-01-05,100\n"
    )
    res = ingest_csv(p)
    assert_array_equal(res.panel["AAA"].values, [100.0, 101.0])


def test_ingest_gap_guard(tmp_path):
    # 2015-01-05 to 2015-02-05 leaves far more than 10 missing weekdays
    p = write_csv(
        tmp_path / "i.csv", "date,AAA\n2015-01-05,100\n2015-02-05,101\n"
    )
    with pytest.raises(ValueError, match="gap of"):
        ingest_csv(p)


def test_ingest_all_rows_incomplete(tmp_path):
    p = write_csv(tmp_path / "j.csv", "date,AAA\n2015-01-05,\n2015-01-06,\n")
    with pytest.raises(ValueError, match="no complete rows"):
        ingest_csv(p)


def test_ingest_missing_column(tmp_path):
    p = write_csv(tmp_path / "k.csv", "date,AAA\n2015-01-05,100\n")
    with pytest.raises(ValueError, match="columns not found"):
        ingest_csv(p, columns=["ZZZ"])


# --------------------------------------------------------------- synthetic


def test_synth_zero_noise_spread_is_constant():
    params = SynthParams(
        alpha=(0.0252, 0.0252), sigma=(0.0, 0.0), horizon=50, seed=3
    )
    panel, _ = synth_regime_panel(params)
    assert_allclose(panel["SPREAD"].values, np.full(50, 0.0001), atol=1e-15)


def test_synth_identity_transition_stays_put():
    params = SynthParams(
        transition=((1.0, 0.0), (0.0, 1.0)), horizon=40, start_state=STATE_LOW
    )
    _, states = synth_regime_panel(params)
    assert_array_equal(states, np.zeros(40, dtype=int))
    params_h = SynthParams(
        transition=((1.0, 0.0), (0.0, 1.0)), horizon=40, start_state=STATE_HIGH
    )
    _, states_h = synth_regime_panel(params_h)
    assert_array_equal(states_h, np.ones(40, dtype=int))


def test_synth_same_seed_bit_identical():
    a_panel, a_states = synth_regime_panel(SynthParams(horizon=300, seed=9))
    b_panel, b_states = synth_regime_panel(SynthParams(horizon=300, seed=9))
    assert_array_equal(a_states, b_states)
    for sym in a_panel.symbols:
        assert a_panel[sym].values.tobytes() == b_panel[sym].values.tobytes()
    c_panel, _ = synth_regime_panel(SynthParams(horizon=300, seed=10))
    assert a_panel["SPREAD"].values.tobytes() != c_panel["SPREAD"].values.tobytes()


def test_synth_per_state_moments_converge():
    # large-sample check of the generator's advertised conditional moments
    params = SynthParams(horizon=120_000, seed=2)
    panel, states = synth_regime_panel(params)
    spread = panel["SPREAD"].values
    root = np.sqrt(252.0)
    for s in (STATE_LOW, STATE_HIGH):
        x = spread[states == s]
        n = len(x)
        mu_true = params.alpha[s] / 252.0
        sd_true = params.sigma[s] / root
        assert abs(np.mean(x) - mu_true) < 3.0 * sd_true / np.sqrt(n)
        sd_err = sd_true / np.sqrt(2.0 * (n - 1))
        assert abs(np.std(x, ddof=1) - sd_true) < 3.0 * sd_err


def test_synth_vix_noise_band():
    params = SynthParams(horizon=2000, seed=5)
    panel, states = synth_regime_panel(params)
    vix = panel["VIX"].values
    for s, mean in ((STATE_LOW, 12.0), (STATE_HIGH, 30.0)):
        x = vix[states == s]
        assert np.all(np.abs(x - mean) <= 1.0 + 1e-12)


def test_synth_rejects_bad_transition():
    with pytest.raises(ValueError, match="row-stochastic"):
        SynthParams(transition=((0.9, 0.2), (0.04, 0.96)))
