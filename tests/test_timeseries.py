import csv
import datetime as dt
import math
import re
from typing import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from dynte.timeseries import (
    MAX_WEEKDAY_GAP,
    STATE_HIGH,
    STATE_LOW,
    AssetPanel,
    IngestResult,
    Series,
    SynthParams,
    TradingCalendar,
    UNIT_LEVEL,
    UNIT_PRICE,
    UNIT_RETURN,
    ingest_csv,
    intersect_calendars,
    make_weekday_calendar,
    parse_date,
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


def test_make_weekday_calendar_skips_weekend_start():
    cal = make_weekday_calendar(dt.date(2015, 1, 3), 6)  # Saturday start
    assert cal[0] == MON
    assert all(d.weekday() < 5 for d in cal.dates)


def test_suffix_and_is_suffix_of():
    cal = make_weekday_calendar(MON, 8)
    tail = cal.suffix(3)
    assert len(tail) == 5
    assert np.array_equal(tail.days, cal.days[3:])
    with pytest.raises(ValueError):
        cal.suffix(8)


def test_window_bounds_inclusive():
    cal = make_weekday_calendar(MON, 10)
    sub = cal.window(cal[2], cal[5])
    assert sub.dates == cal.dates[2:6]
    with pytest.raises(ValueError, match="no calendar dates"):
        cal.window(dt.date(2030, 1, 1), dt.date(2030, 2, 1))


def test_calendar_holds_days_and_compares_by_date():
    cal = make_weekday_calendar(MON, 6)
    assert cal.days.dtype == np.dtype("datetime64[D]")
    assert not cal.days.flags.writeable
    assert cal.dates == tuple(cal.days.tolist())
    same = TradingCalendar(cal.dates)
    assert same == cal and hash(same) == hash(cal) and same is not cal
    assert cal != cal.suffix(1) and cal != cal.dates
    assert TradingCalendar(cal.days) == cal
    with pytest.raises(ValueError, match="weekend"):
        TradingCalendar(np.array(["2015-01-05", "2015-01-10"], dtype="datetime64[D]"))


def test_calendar_first_error_in_date_order():
    # the weekend comes after the disorder, so the disorder is named
    with pytest.raises(ValueError, match="not strictly increasing at 2015-01-05"):
        TradingCalendar((dt.date(2015, 1, 6), dt.date(2015, 1, 5), dt.date(2015, 1, 10)))
    with pytest.raises(ValueError, match="2015-01-10 falls on a weekend"):
        TradingCalendar((dt.date(2015, 1, 10), dt.date(2015, 1, 5)))


def test_span_positions():
    cal = make_weekday_calendar(MON, 10)          # 2015-01-05 .. 2015-01-16
    assert cal.span() == (0, 10)
    assert cal.span(dt.date(2015, 1, 3), dt.date(2015, 1, 7)) == (0, 3)
    assert cal.span("2015-01-10", None) == (5, 10)
    i0, i1 = cal.span(dt.date(2015, 1, 10), dt.date(2015, 1, 11))
    assert i1 <= i0


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
    gappy = TradingCalendar((s.calendar[0], s.calendar[2]))
    assert_array_equal(s.restrict(gappy).values, [100.0, 102.0])
    with pytest.raises(ValueError, match="date 2015-01-09 not on calendar"):
        s.restrict(make_weekday_calendar(s.calendar[2], 3))


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
    # prices_from_returns starts its levels from 100
    p0 = 100.0 * np.cumprod(np.r_[1.0, 1.0 + 0.02 * rng.standard_normal(299)])
    prices = pser(p0)
    r = returns_from_prices(prices)
    back = prices_from_returns(r)
    assert_allclose(back.values, p0[1:], rtol=1e-10)


# --------------------------------------------------------------- ingestion


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_ingest_round_trip(tmp_path):
    p = write_csv(
        tmp_path / "a.csv",
        "date,AAA,BBB\n2015-01-05,100,50\n2015-01-06,101,51\n2015-01-07,99,52\n",
    )
    res = ingest_csv(p, None, UNIT_PRICE)
    assert res.n_dropped == 0
    assert res.panel.symbols == ("AAA", "BBB")
    assert len(res.panel.calendar) == 3
    assert_array_equal(res.panel["BBB"].values, [50.0, 51.0, 52.0])


def test_ingest_drops_incomplete_rows(tmp_path):
    p = write_csv(
        tmp_path / "b.csv",
        "date,AAA,BBB\n2015-01-05,100,50\n2015-01-06,101,\n2015-01-07,99,52\n",
    )
    res = ingest_csv(p, None, UNIT_PRICE)
    assert res.n_dropped == 1
    assert res.dropped_dates == (dt.date(2015, 1, 6),)
    assert len(res.panel.calendar) == 2


def test_ingest_column_subset_ignores_other_gaps(tmp_path):
    p = write_csv(
        tmp_path / "c.csv",
        "date,AAA,BBB\n2015-01-05,100,50\n2015-01-06,101,\n2015-01-07,99,52\n",
    )
    res = ingest_csv(p, ["AAA"], UNIT_PRICE)
    assert res.n_dropped == 0
    assert res.panel.symbols == ("AAA",)


def test_ingest_column_order_insensitive(tmp_path):
    p1 = write_csv(
        tmp_path / "d1.csv", "date,AAA,BBB\n2015-01-05,100,50\n2015-01-06,101,51\n"
    )
    p2 = write_csv(
        tmp_path / "d2.csv", "date,BBB,AAA\n2015-01-05,50,100\n2015-01-06,51,101\n"
    )
    r1 = ingest_csv(p1, ["AAA", "BBB"], UNIT_PRICE)
    r2 = ingest_csv(p2, ["AAA", "BBB"], UNIT_PRICE)
    for sym in ("AAA", "BBB"):
        assert_array_equal(r1.panel[sym].values, r2.panel[sym].values)


def test_ingest_error_messages_name_the_row(tmp_path):
    p = write_csv(
        tmp_path / "e.csv", "date,AAA\n2015-01-05,100\nnot-a-date,101\n"
    )
    with pytest.raises(ValueError, match=r"e\.csv:3.*malformed date"):
        ingest_csv(p, None, UNIT_PRICE)
    p = write_csv(tmp_path / "f.csv", "date,AAA\n2015-01-05,100\n2015-01-06,abc\n")
    with pytest.raises(ValueError, match=r"f\.csv:3.*non-numeric.*AAA"):
        ingest_csv(p, None, UNIT_PRICE)


@pytest.mark.parametrize("date", ["20150106", "2015-W02-2", "2015-01-06T00:00",
                                  "2015-1-6", " 2015-01-06x"])
def test_ingest_reads_only_yyyy_mm_dd_dates(tmp_path, date):
    # Python 3.11's date.fromisoformat takes the first two
    for row in (date + ",101", date + ',"101"'):  # the array path and the row path
        p = write_csv(tmp_path / "d.csv", f"date,AAA\n2015-01-05,100\n{row}\n")
        with pytest.raises(ValueError, match=r"d\.csv:3: malformed date"):
            ingest_csv(p, None, UNIT_PRICE)


def test_parse_date_is_strict():
    assert parse_date("2000-02-29") == dt.date(2000, 2, 29)
    for text in ("20000104", "2000-W01-3", "2000-01-04 ", "2000-001", "２０００-01-04",
                 "2000-02-30", None, 20000104):
        with pytest.raises(ValueError, match="YYYY-MM-DD|day is out of range"):
            parse_date(text)


def test_ingest_duplicate_date(tmp_path):
    p = write_csv(
        tmp_path / "g.csv", "date,AAA\n2015-01-05,100\n2015-01-05,101\n"
    )
    with pytest.raises(ValueError, match="duplicate date"):
        ingest_csv(p, None, UNIT_PRICE)


def test_ingest_unsorted_rows_accepted(tmp_path):
    p = write_csv(
        tmp_path / "h.csv", "date,AAA\n2015-01-06,101\n2015-01-05,100\n"
    )
    res = ingest_csv(p, None, UNIT_PRICE)
    assert_array_equal(res.panel["AAA"].values, [100.0, 101.0])


def test_ingest_gap_guard(tmp_path):
    # 2015-01-05 to 2015-02-05 leaves far more than 10 missing weekdays
    p = write_csv(
        tmp_path / "i.csv", "date,AAA\n2015-01-05,100\n2015-02-05,101\n"
    )
    with pytest.raises(ValueError, match="gap of"):
        ingest_csv(p, None, UNIT_PRICE)


def test_ingest_all_rows_incomplete(tmp_path):
    p = write_csv(tmp_path / "j.csv", "date,AAA\n2015-01-05,\n2015-01-06,\n")
    with pytest.raises(ValueError, match="no complete rows"):
        ingest_csv(p, None, UNIT_PRICE)


def test_ingest_missing_column(tmp_path):
    p = write_csv(tmp_path / "k.csv", "date,AAA\n2015-01-05,100\n")
    with pytest.raises(ValueError, match="columns not found"):
        ingest_csv(p, ["ZZZ"], UNIT_PRICE)


# The row-by-row reader ingest_csv replaced, kept as the oracle it must match.
_MISSING_CELLS = frozenset(("", "na", "nan", "null", "none", "#n/a"))


def oracle_ingest_csv(
    path,
    columns: Sequence[str] | None = None,
    date_column: str = "date",
    unit: str = UNIT_PRICE,
) -> IngestResult:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 2:
            raise ValueError(f"{path}: need a date column plus at least one symbol")
        if header[0] != date_column:
            raise ValueError(
                f"{path}: first column is {header[0]!r}, expected {date_column!r}"
            )
        symbols = header[1:]
        if columns is not None:
            missing = [c for c in columns if c not in symbols]
            if missing:
                raise ValueError(f"{path}: columns not found: {missing}")
            symbols = list(columns)
        col_pos = {sym: header.index(sym) for sym in symbols}

        rows: list[tuple[dt.date, list[float | None]]] = []
        for lineno, raw in enumerate(reader, start=2):
            if not raw or all(not c.strip() for c in raw):
                continue
            try:
                text = raw[0].strip()
                if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
                    raise ValueError
                d = dt.date.fromisoformat(text)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: malformed date {raw[0]!r}"
                ) from None
            cells: list[float | None] = []
            for sym in symbols:
                pos = col_pos[sym]
                cell = raw[pos].strip() if pos < len(raw) else ""
                if cell.lower() in _MISSING_CELLS:
                    cells.append(None)
                    continue
                try:
                    x = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric cell {cell!r} in column {sym}"
                    ) from None
                if not math.isfinite(x):
                    raise ValueError(
                        f"{path}:{lineno}: non-finite cell {cell!r} in column {sym}"
                    )
                cells.append(x)
            rows.append((d, cells))

    rows.sort(key=lambda r: r[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise ValueError(f"{path}: duplicate date {d1}")

    kept_dates: list[dt.date] = []
    kept_vals: list[list[float]] = []
    dropped: list[dt.date] = []
    for d, cells in rows:
        if any(v is None for v in cells):
            dropped.append(d)
        else:
            kept_dates.append(d)
            kept_vals.append(cells)  # type: ignore[arg-type]
    if not kept_dates:
        raise ValueError(f"{path}: no complete rows (empty intersection)")

    for d1, d2 in zip(kept_dates, kept_dates[1:]):
        between = int(np.busday_count(d1, d2)) - 1
        if between > MAX_WEEKDAY_GAP:
            raise ValueError(
                f"{path}: gap of {between} weekdays between {d1} and {d2}"
            )

    cal = TradingCalendar(tuple(kept_dates))
    mat = np.asarray(kept_vals, dtype=np.float64)
    series = {
        sym: Series(cal, mat[:, j], unit) for j, sym in enumerate(symbols)
    }
    return IngestResult(AssetPanel(cal, series), tuple(dropped))


def _cased(token: str):
    return st.tuples(*[st.sampled_from((c.lower(), c.upper())) for c in token]).map("".join)


_PAD = st.sampled_from(("", "", "", " ", "\t", "  "))
_MISSING = st.sampled_from(sorted(_MISSING_CELLS)).flatmap(_cased)
_NUMBER = st.floats(0.01, 1e4).flatmap(lambda x: st.sampled_from(
    ("%.6f" % x, repr(x), str(int(x) + 1), "%.3e" % x, "+%.2f" % x, '"%.4f"' % x,
     "-%.2f" % x, "0")))
_BAD_CELL = st.sampled_from(("abc", "1.2.3", "--1", "e", "+", '"1,5"', "1_000", "inf",
                             "-nan", "0x10", ". 5"))
_CELL = st.tuples(_PAD, st.one_of(*[_NUMBER] * 4, *[_MISSING] * 3, _BAD_CELL),
                  _PAD).map("".join)
_BAD_DATE = st.sampled_from(("2015-13-01", "2015-02-30", "not-a-date", "", "0000-01-03",
                             "2015-1-5", "20150105", "2015-01-05T00", '"2015-01-07"',
                             "2015-01-10"))
_BLANK = st.sampled_from(("", " ", ",,", " , ", "\t,"))


@st.composite
def csv_texts(draw):
    """A small wide CSV in the shapes the reader must handle, its column
    request and unit."""
    symbols = ["A", "B", "C"][: draw(st.integers(1, 3))]
    header = ",".join(draw(_PAD) + h for h in ["date", *symbols])
    steps = draw(st.lists(st.sampled_from((1, 1, 1, 2, 3)), min_size=1, max_size=25))
    # a duplicate date; a gap of MAX_WEEKDAY_GAP weekdays or one more
    for odd in (0, draw(st.sampled_from((MAX_WEEKDAY_GAP + 1, MAX_WEEKDAY_GAP + 2)))):
        if draw(st.integers(0, 4)) == 0:
            steps.insert(draw(st.integers(0, len(steps))), odd)
    days = np.busday_offset("2015-01-05", np.cumsum(steps)).tolist()
    lines = []
    for d in days:
        date = d.isoformat() if draw(st.integers(0, 39)) else draw(_BAD_DATE)
        cells = [draw(_CELL) if draw(st.integers(0, 3)) == 0 else "%.4f" % draw(
            st.floats(1.0, 500.0)) for _ in symbols]
        width = draw(st.sampled_from((len(cells),) * 8 + (len(cells) - 1, len(cells) + 1)))
        cells = (cells + ["7.5"])[:width]
        lines.append(",".join([draw(_PAD) + date + draw(_PAD), *cells]))
    lines = draw(st.permutations(lines)) if draw(st.booleans()) else lines
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_BLANK))
    end = draw(st.sampled_from(("\n", "\r\n")))
    text = end.join([header, *lines]) + (end if draw(st.booleans()) else "")
    columns = draw(st.none() | st.permutations(symbols).flatmap(
        lambda p: st.integers(1, len(p)).map(lambda k: p[:k])))
    unit = draw(st.sampled_from((UNIT_PRICE, UNIT_LEVEL)))
    return text, columns, unit


def ingest_outcome(reader, path, columns, unit):
    try:
        res = reader(path, columns=columns, unit=unit)
    except ValueError as e:
        return "error", str(e)
    panel = res.panel
    return ("ok", panel.calendar.dates, panel.symbols,
            [panel[s].values.tobytes() for s in panel.symbols], res.dropped_dates)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_texts())
def test_ingest_matches_row_by_row_oracle(tmp_path, case):
    text, columns, unit = case
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    assert ingest_outcome(ingest_csv, path, columns, unit) == \
        ingest_outcome(oracle_ingest_csv, path, columns, unit)


def test_ingest_edge_files_match_oracle(tmp_path):
    texts = ["", "\n", "date\n", "day,A\n2015-01-05,1\n", "date,A",
             "date,A\r2015-01-05,1\r2015-01-06,2", "date,A\n\n\n2015-01-05,1\n",
             "date,A,A\n2015-01-05,1,2\n", '"date","A"\n"2015-01-05","3"\n',
             "date,A\n2015-02-27,1\n2015-02-30,2\n", "date,A\n2015-04-30,1\n2015-04-31,2\n",
             "date,A\n2016-02-29,1\n2016-03-01,2\n", "date,A\n2015-02-27,1\n2015-02-29,2\n",
             "date,A\n0000-01-03,1\n", "date,A\n2015-00-05,1\n", "date,A\n2015-01-00,1\n",
             "date,A\n2015-01-05,1e400\n", "date,A\n2015-01-05,1e-400\n",
             "date,A\n2015-01-05,1\n2015-01-06,1.2.3\n2015-01-07,na\n",
             "date,A\n2015-01-05,-\n2015-01-06,x\n"]
    for k, text in enumerate(texts):
        path = tmp_path / f"e{k}.csv"
        path.write_bytes(text.encode())
        for columns in (None, ["A"]):
            assert ingest_outcome(ingest_csv, path, columns, UNIT_PRICE) == \
                ingest_outcome(oracle_ingest_csv, path, columns, UNIT_PRICE), text


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
