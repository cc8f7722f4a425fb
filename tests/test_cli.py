import csv
import datetime as dt
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from dynte.cli import (CONFIG_VERSION, ConfigError, Run, _cell, _column_text, _svg, load_config,
                       main)
from dynte.inference import circular_block_bootstrap
from dynte.metrics import sharpe, summarize
from dynte.regime import classify
from dynte.simulate import benchmark_7030, simulate_overlay, sizing_vol
from dynte.timeseries import (UNIT_LEVEL, UNIT_RETURN, Series, SynthParams, TradingCalendar,
                              synth_regime_panel)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_config(tmp_path, **overrides):
    cfg = {"version": CONFIG_VERSION, "svg": False, "synth": {"horizon": 500}}
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, *argv, config_extra=None):
    cfg = write_config(tmp_path, **(config_extra or {}))
    out = tmp_path / "out"
    code = main([argv[0], "--config", cfg, "--out", str(out), *argv[1:]])
    return code, sorted(out.glob("*")) if out.exists() else []


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


# ------------------------------------------------------------------ basics


def test_props_exit_zero_and_csv(tmp_path, capsys):
    code, files = run(tmp_path, "props")
    assert code == 0
    assert len(files) == 1
    assert re.fullmatch(r"props_[0-9a-f]{12}\.csv", files[0].name)
    rows = read_rows(files[0])
    assert rows[0] == ["prop", "status", "boundary", "values", "note"]
    assert len(rows) == 6
    assert capsys.readouterr().out.strip() == str(files[0])


def test_synth_deterministic_rerun(tmp_path):
    code1, files1 = run(tmp_path, "synth")
    hashes = {f.name: sha(f) for f in files1}
    code2, files2 = run(tmp_path, "synth")
    assert code1 == code2 == 0
    assert {f.name: sha(f) for f in files2} == hashes
    names = sorted(f.name for f in files1)
    assert re.fullmatch(r"synth_panel_[0-9a-f]{12}\.csv", names[0])
    assert re.fullmatch(r"synth_states_[0-9a-f]{12}\.csv", names[1])


def test_seed_flag_changes_hash_and_content(tmp_path):
    _, base = run(tmp_path, "synth")
    _, seeded = run(tmp_path, "synth", "--seed", "7")
    base_names = {f.name for f in base}
    new = [f for f in seeded if f.name not in base_names]
    assert len(new) == 2  # different config hash, fresh filenames
    panel = next(f for f in new if f.name.startswith("synth_panel"))
    base_panel = next(f for f in base if f.name.startswith("synth_panel"))
    assert sha(panel) != sha(base_panel)


def test_synth_levels_parse_and_dates(tmp_path):
    _, files = run(tmp_path, "synth")
    panel = next(f for f in files if f.name.startswith("synth_panel"))
    rows = read_rows(panel)
    assert rows[0] == ["date", "BENCH_EQ", "BENCH_BD", "SPREAD", "VIX"]
    assert len(rows) == 501
    first = rows[1]
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}", first[0])
    for cell in first[1:]:
        float(cell)


# ----------------------------------------------------------- config errors


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verison": 1}))
    assert main(["props", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "verison" in err


def test_bad_version(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 99}))
    assert main(["props", "--config", str(cfg)]) == 2
    assert "version" in capsys.readouterr().err


def test_config_file_missing(tmp_path, capsys):
    assert main(["props", "--config", str(tmp_path / "nope.json")]) == 2
    assert "file not found" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["props", "--config", str(cfg)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_threshold_ordering_rejected(tmp_path, capsys):
    code, _ = run(tmp_path, "props", config_extra={"thresholds": {"low": 30, "high": 13}})
    assert code == 2
    assert "thresholds" in capsys.readouterr().err


def test_unknown_data_role(tmp_path, capsys):
    code, _ = run(tmp_path, "props", config_extra={"data": {"gold": {}}})
    assert code == 2
    assert "data.gold" in capsys.readouterr().err


def test_exhibit1_needs_sector_data(tmp_path, capsys):
    code, _ = run(tmp_path, "exhibit", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert "data.sectors" in err and "exhibit 1" in err


def test_exhibit_number_out_of_range(tmp_path, capsys):
    code, _ = run(tmp_path, "exhibit", "9")
    assert code == 2
    assert "1..7" in capsys.readouterr().err


def test_bad_caps_flag(tmp_path, capsys):
    for caps in ("0.01,wat", ""):  # an empty list is an error, not the default
        code, _ = run(tmp_path, "converge", "--caps", caps)
        assert code == 2, caps
        assert "--caps" in capsys.readouterr().err


def test_bad_windows_flag(tmp_path, capsys):
    for flag, value in (("--windows", "5,x"), ("--windows", ""), ("--horizons", "")):
        code, _ = run(tmp_path, "sweep", flag, value)
        assert code == 2, (flag, value)
        assert flag in capsys.readouterr().err


def test_config_error_field_attribute():
    for field in ("caps", "sweep_windows"):
        with pytest.raises(ConfigError) as exc:
            load_config(None, {field: []})
        assert exc.value.field == field


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("cfg,field", [
    ({"data": 5}, "data"),
    ({"crises": []}, "crises"),
    ({"synth": "x"}, "synth"),
    ({"caps": [0.01, "a"]}, "caps[1]"),
    ({"caps": [True]}, "caps[0]"),
    ({"omega_horizons": ["x"]}, "omega_horizons[0]"),
    ({"regret_horizons": [63, 0]}, "regret_horizons[1]"),
    ({"sweep_windows": [5.5]}, "sweep_windows[0]"),
    ({"windows": {"vol": "x"}}, "windows.vol"),
    ({"windows": {"vol": 0}}, "windows.vol"),
    ({"policy": {"low": "x"}}, "policy.low"),
    ({"percentiles": {"low": "x"}}, "percentiles.low"),
    ({"bootstrap": {"block": "x"}}, "bootstrap.block"),
    ({"bootstrap": {"iterations": 0}}, "bootstrap"),
    ({"seed": True}, "seed"),
    ({"svg": "no"}, "svg"),
    ({"thresholds": {"low": True, "high": 22}}, "thresholds.low"),
    ({"percentiles": {"low": 2.0}}, "percentiles"),
    ({"synth": {"start_date": "x"}}, "synth.start_date"),
    ({"crises": {"gfc": ["x", "y"]}}, "crises.gfc"),
    ({"crises": {"gfc": ["2009-06-30", "2007-10-01"]}}, "crises.gfc"),
    ({"range": {"start": "x"}}, "range.start"),
    ({"range": {"start": "2010-01-04", "end": "2009-01-05"}}, "range"),
    ({"data": {"tlt": {"path": __file__, "column": 5}}}, "data.tlt.column"),
    ({"data": {"sectors": {"path": __file__, "columns": "AB"}}}, "data.sectors.columns"),
    ({"bootstrap": {"seed": 1}}, "bootstrap.seed"),
    ({"model": {"alpha": [0.1]}}, "model.alpha"),
    # dates Python 3.11's date.fromisoformat takes but YYYY-MM-DD does not
    ({"range": {"start": "20050103"}}, "range.start"),
    ({"range": {"end": "2005-W01-3"}}, "range.end"),
    ({"crises": {"gfc": ["20071001", "2009-06-30"]}}, "crises.gfc"),
    ({"synth": {"start_date": "20040105"}}, "synth.start_date"),
    ({"synth": {"start_date": "2004-W02-1"}}, "synth.start_date"),
    ({"model": {"alpha": [True, 0.1]}}, "model.alpha[0]"),
    ({"model": {"sigma": [0.1, "0.3"]}}, "model.sigma[1]"),
    ({"synth": {"foo": 1}}, "synth.foo"),
    ({"synth": {"seed": None}}, "synth.seed"),
])
def test_config_type_errors_name_the_field(tmp_path, capsys, cfg, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["props", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


FORMS = [("synth",)] + [("exhibit", str(n)) for n in range(1, 8)] + [
    ("converge",), ("omega",), ("regret",), ("sweep",), ("props",)]


@pytest.mark.parametrize("form", FORMS, ids=" ".join)
def test_every_subcommand_runs_on_an_empty_config(tmp_path, capsys, form):
    # the default synthetic panel covers only the first default crisis window
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    code = main([*form, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if form == ("exhibit", "1"):  # the synthetic panel has no sectors
        assert code == 2 and "data.sectors" in err
        return
    assert code == 0, err
    if form in (("regret",), ("exhibit", "6")):
        assert "skipped crisis windows with no trading days: covid, tightening_2022" in err
        assert sum(1 for _ in tmp_path.glob("o/exhibit6b_*.csv")) == 1


METRICS = ["cagr", "vol", "sharpe", "max_drawdown", "cagr_over_maxdd", "te_level",
           "te_sigma", "te_cyclicality"]
OMEGA = (["horizon_days", "q1", "q2", "q3", "q4", "q5", "spread_q5_q1", "nw_t"]
         + ["n_q1", "n_q2", "n_q3", "n_q4", "n_q5"]
         + ["boundary_20", "boundary_40", "boundary_60", "boundary_80"])
REGRET = ["crisis", "trough_date", "max_drawdown", "vix_at_trough", "horizon_days",
          "stay_70_30", "derisk_30_70", "regret"]
CONVERGE = ["cap", "cagr", "vol", "sharpe", "max_drawdown", "te_level", "te_sigma",
            "sharpe_ci_lo", "sharpe_ci_hi", "ci_width"]
# every table each subcommand writes on an empty config, by file stem
HEADERS = {
    ("synth",): {"synth_panel": ["date", "BENCH_EQ", "BENCH_BD", "SPREAD", "VIX"],
                 "synth_states": ["date", "state"]},
    ("exhibit", "1"): {},
    ("exhibit", "2"): {"exhibit2": ["date", "corr_eq_bd"]},
    ("exhibit", "3"): {"exhibit3": ["portfolio", *METRICS]},
    ("exhibit", "4"): {"exhibit4": ["date", "te_static", "te_dynamic", "smoothed_vix"]},
    ("exhibit", "5"): {"exhibit5": OMEGA},
    ("exhibit", "6"): {"exhibit6a": ["date", "drawdown", "vix"], "exhibit6b": REGRET},
    ("exhibit", "7"): {"exhibit7": CONVERGE},
    ("converge",): {"exhibit7": CONVERGE},
    ("omega",): {"exhibit5": OMEGA},
    ("regret",): {"exhibit6b": REGRET},
    ("sweep",): {"sweep": ["window", "threshold_low", "threshold_high", "cagr", "sharpe",
                           "cagr_over_maxdd", "excess_cagr", "static_cagr", "static_sharpe",
                           "static_cagr_over_maxdd", "passes_sharpe", "passes_calmar",
                           "passes_both"]},
    ("props",): {"props": ["prop", "status", "boundary", "values", "note"]},
}


@pytest.mark.parametrize("form", FORMS, ids=" ".join)
def test_every_table_header_on_an_empty_config(tmp_path, capsys, form):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    main([*form, "--config", str(cfg), "--out", str(tmp_path / "o")])
    csvs = sorted(tmp_path.glob("o/*.csv"))
    assert {p.name.rsplit("_", 1)[0]: read_rows(p)[0] for p in csvs} == HEADERS[form]


def test_exhibit1_on_sector_files(tmp_path):
    _, files = run(tmp_path, "synth", config_extra={"synth": {"horizon": 300}})
    panel = str(next(f for f in files if f.name.startswith("synth_panel")))
    data = {"sectors": {"path": panel, "columns": ["BENCH_EQ", "BENCH_BD", "SPREAD"]},
            "vix": {"path": panel, "column": "VIX"}}
    code, files = run(tmp_path, "exhibit", "1", config_extra={"data": data, "svg": True})
    assert code == 0
    (table,) = [f for f in files if f.name.startswith("exhibit1_")
                and f.suffix == ".csv"]
    rows = read_rows(table)
    assert rows[0] == ["date", "avg_pairwise_corr", "vix"]
    assert len(rows) == 1 + 300 - 63  # a row per full 63-day window of 299 returns
    (chart,) = [f for f in files if f.name.startswith("exhibit1_") and f.suffix == ".svg"]
    assert set(svg_series(ET.fromstring(chart.read_bytes()))) == {"avg pairwise corr"}


def test_short_samples_name_the_setting(tmp_path, capsys):
    # 100 days: shorter than the 126-day stock-bond window, than twice the
    # 63-day vol window, and than twice the 63-day omega horizon; 50 and 15
    # days: no longer than the 63-day vol window, and 15 days shorter than
    # the 21-day signal window; 700 days: shorter than an 800-day sweep window
    for form, days, field in ((["exhibit", "2"], 100, "windows.stock_bond_corr"),
                              (["exhibit", "4"], 100, "windows.vol"),
                              (["omega"], 100, "omega_horizons"),
                              (["sweep"], 50, "windows.vol"),
                              (["exhibit", "3"], 15, "windows.vol"),
                              (["converge"], 15, "windows.signal"),
                              (["sweep"], 15, "windows.vol"),
                              (["sweep", "--windows", "21,800"], 700, "sweep_windows[1]")):
        code, _ = run(tmp_path, *form, config_extra={"synth": {"horizon": days}})
        assert code == 1, form
        # after the synthetic panel's data line
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {field}: "), form


OUTRUNS_VOL = ("the 80-day window may not exceed windows.vol (63); the overlay's first "
               "decision reads the label of day 63")


@pytest.mark.parametrize("form,extra,message", [
    (["exhibit", "3"], {"windows": {"signal": 80}}, f"windows.signal: {OUTRUNS_VOL}"),
    (["converge"], {"windows": {"signal": 80}}, f"windows.signal: {OUTRUNS_VOL}"),
    (["sweep"], {"synth": {"horizon": 300}, "sweep_windows": [80]},
     f"sweep_windows[0]: {OUTRUNS_VOL}"),
    # a flat gauge: every smoothed value is 12, so both fitted thresholds are
    (["sweep"], {"synth": {"horizon": 300, "vix_noise": 0,
                           "transition": [[1.0, 0.0], [0.0, 1.0]]}},
     "sweep_windows[0]: the thresholds fitted at percentiles 0.16 and 0.76 coincide, at 12.0"),
], ids=["exhibit 3", "converge", "sweep window", "sweep flat gauge"])
def test_a_signal_that_cannot_size_the_overlay_names_its_setting(tmp_path, capsys, form,
                                                                extra, message):
    code, _ = run(tmp_path, *form, config_extra=extra)
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"


def test_a_long_signal_window_fails_only_where_it_sizes_an_overlay(tmp_path, capsys):
    for form in (["omega"], ["exhibit", "2"], ["exhibit", "6"], ["props"]):
        code, _ = run(tmp_path, *form, config_extra={"synth": {"horizon": 700},
                                                     "windows": {"signal": 80}})
        assert code == 0, capsys.readouterr().err


def test_tracking_error_needs_more_than_twice_the_vol_window(tmp_path, capsys):
    # at 126 days the 63-day TE window has one value: no path, as at 125 days
    extra = {"synth": {"horizon": 126}, "bootstrap": {"iterations": 200}}
    for form, stem, te_columns in ((["exhibit", "3"], "exhibit3", slice(6, 9)),
                                   (["converge"], "exhibit7", slice(5, 7))):
        code, files = run(tmp_path, *form, config_extra=extra)
        assert code == 0, capsys.readouterr().err
        (table,) = [f for f in files if f.name.startswith(stem)]
        header, *rows = read_rows(table)
        assert header[te_columns][0] == "te_level"
        assert {c for r in rows for c in r[te_columns]} == {""}, form
    code, _ = run(tmp_path, "exhibit", "4", config_extra=extra)
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: windows.vol: a realized tracking error needs more than twice the "
        "63-day window, and the sample has 126 days")


@pytest.mark.parametrize("cfg,field", [
    ({"model": {"p": 2.0}}, "model"),
    ({"crises": {"gfc": ["x", "y"]}}, "crises.gfc"),
    ({"synth": {"alpha": [0.1]}}, "synth.alpha"),
    ({"synth": {"vix_mean": ["a", "b"]}}, "synth.vix_mean[0]"),
    ({"synth": {"seed": True}}, "synth.seed"),
    ({"synth": {"horizon": True}}, "synth.horizon"),
    ({"synth": {"transition": [[True, False], [False, True]]}}, "synth.transition[0][0]"),
])
def test_every_subcommand_rejects_a_bad_config(tmp_path, capsys, cfg, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for form in FORMS:
        assert main([*form, "--config", str(path), "--out", str(tmp_path / "o")]) == 2, form
        assert capsys.readouterr().err.startswith(f"config error: {field}: "), form
    assert not (tmp_path / "o").exists()


def test_seed_flag_equals_config_seed(tmp_path):
    extra = {"bootstrap": {"iterations": 200}}
    cfg = write_config(tmp_path, seed=5, **extra)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    cfg = write_config(tmp_path, **extra)
    assert main(["converge", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "b")]) == 0
    a, b = outputs(tmp_path / "a"), outputs(tmp_path / "b")
    assert len(a) == 1 and a == b


def test_range_windows_the_synthetic_panel(tmp_path, capsys):
    # the 900-day panel runs from 2004-01-05 to 2007-06
    extra = {"synth": {"horizon": 900}, "range": {"start": "2005-01-03", "end": "2006-06-30"}}
    code, files = run(tmp_path, "exhibit", "2", config_extra=extra)
    assert code == 0
    dates = [r[0] for r in read_rows(files[0])[1:]]
    assert dates[0] > "2005-01-03" and dates[-1] == "2006-06-30"
    _, files = run(tmp_path, "synth", config_extra=extra)
    panel = next(f for f in files if f.name.startswith("synth_panel"))
    assert len(read_rows(panel)) == 901  # synth writes the whole panel
    extra["range"] = {"start": "2005-01-03", "end": "2005-01-04"}
    code, _ = run(tmp_path, "exhibit", "2", config_extra=extra)
    assert code == 1
    err = capsys.readouterr().err
    assert "error: range: " in err and "fewer than three" in err


def outputs(out):
    return {p.name: sha(p) for p in sorted(out.glob("*"))}


def test_output_names_ignore_out_and_svg(tmp_path):
    runs = {}
    for out, svg in (("o1", True), ("o2", True), ("o3", False)):
        cfg = write_config(tmp_path, svg=svg, synth={"horizon": 900},
                           bootstrap={"iterations": 200})
        for form in FORMS:
            if form != ("exhibit", "1"):
                assert main([*form, "--config", cfg, "--out", str(tmp_path / out)]) == 0
        runs[out] = outputs(tmp_path / out)
    assert runs["o1"] == runs["o2"]
    assert any(name.endswith(".svg") for name in runs["o1"])
    csvs = {k: v for k, v in runs["o1"].items() if k.endswith(".csv")}
    assert runs["o3"] == csvs


@pytest.mark.parametrize("form,cfg,names", [
    (("props",), {}, ["props_2310c384e5bf.csv"]),
    (("synth",), {}, ["synth_panel_b7a776eacddc.csv", "synth_states_b7a776eacddc.csv"]),
    (("props",), {"model": {"alpha": [0, 1], "sigma": [1, 2], "p": 1, "tau_bar": 1},
                  "synth": {"horizon": 900}, "bootstrap": {"iterations": 200}},
     ["props_da17964c909e.csv"]),
], ids=["props-empty", "synth-empty", "props-int-model"])
def test_output_names_are_pinned(tmp_path, form, cfg, names):
    # how the defaults and a config's values serialise into the hash: a
    # change there renames every output
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([*form, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == names


def test_output_name_covers_input_bytes(tmp_path):
    _, files = run(tmp_path, "synth")
    panel = next(f for f in files if f.name.startswith("synth_panel"))
    data = {role: {"path": str(panel), "column": col}
            for role, col in (("eq", "BENCH_EQ"), ("bd", "BENCH_BD"), ("vix", "VIX"))}
    code, first = run(tmp_path, "omega", "--horizons", "21,63", config_extra={"data": data})
    assert code == 0
    omega = [f.name for f in first if f.name.startswith("exhibit5_")]
    lines = panel.read_text().splitlines()
    lines[-1] = ",".join(lines[-1].split(",")[:-1] + ["20.5"])  # one VIX cell
    panel.write_text("\n".join(lines) + "\n")
    code, second = run(tmp_path, "omega", "--horizons", "21,63", config_extra={"data": data})
    assert code == 0
    new = [f.name for f in second if f.name.startswith("exhibit5_")]
    assert len(omega) == 1 and len(new) == 2 and omega[0] in new


def test_dropped_rows_reported_on_stderr(tmp_path, capsys):
    _, files = run(tmp_path, "synth")
    panel = next(f for f in files if f.name.startswith("synth_panel"))
    lines = panel.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[40].split(",")
    row[header.index("BENCH_EQ")] = ""                 # one incomplete row
    eq_file = tmp_path / "eq.csv"
    eq_file.write_text("\n".join(lines[:40] + [",".join(row)] + lines[41:]) + "\n")
    data = {"eq": {"path": str(eq_file), "column": "BENCH_EQ"},
            "bd": {"path": str(panel), "column": "BENCH_BD"},
            "vix": {"path": str(panel), "column": "VIX"}}
    capsys.readouterr()
    code, _ = run(tmp_path, "exhibit", "2", config_extra={"data": data})
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    data_lines = [line for line in err if line.startswith("data: ")]
    assert data_lines == [
        f"data: {eq_file} dropped 1 incomplete rows; {panel} dropped 0 incomplete rows; "
        f"{panel} dropped 0 incomplete rows; intersection dropped 1 dates"
    ]


@pytest.mark.parametrize("role,column", [("vix", "VIX"), ("eq", "BENCH_EQ")])
@pytest.mark.parametrize("cell", ["+nan", "-nan", "inf", "-Infinity", "1e999"])
def test_a_non_finite_cell_names_its_file_line_and_column(tmp_path, capsys, role, column,
                                                          cell):
    _, files = run(tmp_path, "synth")
    panel = next(f for f in files if f.name.startswith("synth_panel"))
    lines = panel.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[40].split(",")
    row[header.index(column)] = cell                   # line 41 of the file
    bad = tmp_path / f"{role}.csv"
    bad.write_text("\n".join(lines[:40] + [",".join(row)] + lines[41:]) + "\n")
    data = {r: {"path": str(bad if r == role else panel), "column": c}
            for r, c in (("eq", "BENCH_EQ"), ("bd", "BENCH_BD"), ("vix", "VIX"))}
    capsys.readouterr()
    code, _ = run(tmp_path, "exhibit", "3", config_extra={"data": data})
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:41: non-finite cell {cell!r} in column {column}\n")


def test_synthetic_fallback_named_on_stderr(tmp_path, capsys):
    # the 900-day seed-3 panel runs from 2004-01-05 to 2007-06-15
    extra = {"seed": 3, "synth": {"horizon": 900},
             "range": {"start": "2005-01-03", "end": "2006-06-30"}}
    for form in (["exhibit", "6"], ["synth"], ["props"]):
        code, _ = run(tmp_path, *form, config_extra=extra)
        assert code == 0, form
        data_lines = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("data: ")]
        if form[0] == "exhibit":  # both of its tables read one market
            assert data_lines == [
                "data: synthetic panel, seed 3, 390 days from 2005-01-03 to 2006-06-30"]
        else:  # synth writes the panel but builds no market
            assert data_lines == [], form


NEEDS_DATA = [f for f in FORMS if f not in (("synth",), ("exhibit", "1"), ("props",))]


@pytest.mark.parametrize("form", NEEDS_DATA, ids=" ".join)
def test_partial_data_names_the_first_missing_role(tmp_path, capsys, form):
    # the synthetic panel stands in only when no data role is configured
    tlt = {"tlt": {"path": __file__, "column": "TLT"}}
    bd = {"bd": {"path": __file__, "column": "BD"}}
    for data in (tlt, bd) if form in (("omega",), ("exhibit", "5")) else (tlt,):
        code, files = run(tmp_path, *form, config_extra={"data": data})
        assert (code, files) == (2, []), data
        assert capsys.readouterr().err == (
            f"config error: data.eq: required for {' '.join(form)}\n")


def bench_style_data(tmp_path):
    """One CSV file per role, as the benchmark writes them."""
    _, files = run(tmp_path, "synth", config_extra={"synth": {"horizon": 900}})
    text = next(f for f in files if f.name.startswith("synth_panel")).read_text()
    data = {}
    for role, cols in (("eq", "BENCH_EQ"), ("bd", "BENCH_BD"), ("vix", "VIX"),
                       ("tlt", "BENCH_BD"), ("sectors", ["BENCH_EQ", "BENCH_BD", "SPREAD"])):
        path = tmp_path / f"{role}.csv"
        path.write_text(text)
        data[role] = {"path": str(path), "columns" if role == "sectors" else "column": cols}
    return data


# what each form reads, when not every file
READS = {("synth",): (), ("props",): (), ("exhibit", "1"): ("sectors", "vix", "tlt"),
         ("exhibit", "5"): ("eq", "vix", "tlt", "sectors"),
         ("omega",): ("eq", "vix", "tlt", "sectors")}
BENCHMARKS = {("exhibit", "3"), ("exhibit", "4"), ("exhibit", "6"), ("exhibit", "7"),
              ("converge",), ("regret",), ("sweep",)}
# static and dynamic; one per default cap; static and one per default sweep window
OVERLAYS = {("exhibit", "3"): 2, ("exhibit", "4"): 2, ("exhibit", "7"): 11, ("converge",): 11,
            ("sweep",): 5}


@pytest.mark.parametrize("form", FORMS, ids=" ".join)
def test_a_run_builds_what_its_tables_share_once(tmp_path, monkeypatch, form):
    import dynte.cli

    data = bench_style_data(tmp_path)
    calls = []
    for name in ("ingest_csv", "benchmark_7030", "sizing_vol", "simulate_overlay"):
        def counted(*args, _name=name, _fn=getattr(dynte.cli, name), **kwargs):
            calls.append(_name if _name != "ingest_csv" else args[0])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(dynte.cli, name, counted)
    code, _ = run(tmp_path, *form, config_extra={
        "data": data, "bootstrap": {"iterations": 200}, "svg": True})
    assert code == 0
    reads = READS.get(form, ("eq", "bd", "vix", "tlt", "sectors"))
    assert sorted(calls) == sorted([
        *(data[role]["path"] for role in reads),
        *["benchmark_7030"] * (form in BENCHMARKS),
        *["sizing_vol"] * (form in OVERLAYS),
        *["simulate_overlay"] * OVERLAYS.get(form, 0)])


def test_converge_sizes_every_cap_on_one_trailing_vol(tmp_path, monkeypatch):
    import dynte.simulate

    lengths = []

    def counted(r, w, _fn=dynte.simulate.rolling_vol):
        lengths.append(len(r))
        return _fn(r, w)

    monkeypatch.setattr(dynte.simulate, "rolling_vol", counted)
    code, _ = run(tmp_path, "converge", config_extra={"bootstrap": {"iterations": 200}})
    assert code == 0
    # one pass over the whole spread sizes the 11 caps; each cap's realized
    # tracking error is a trailing vol of its own, shorter, active returns
    n = max(lengths)
    assert sorted(lengths) == [n - 63] * 11 + [n]


def test_no_command_imports_numpy_ma(tmp_path):
    # np.quantile imports numpy.ma on its first call; the percentile helper
    # reproduces it without that import
    (tmp_path / "cfg.json").write_text("{}")
    code = ("import sys; from dynte.cli import main\n"
            "for form in (['converge'], ['omega'], ['sweep']):\n"
            "    assert main([*form, '--config', 'cfg.json', '--out', 'o']) == 0\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# ---------------------------------------------------------------- exhibits


def test_exhibit3_metrics_table(tmp_path):
    code, files = run(tmp_path, "exhibit", "3")
    assert code == 0
    rows = read_rows(files[0])
    assert rows[0][0] == "portfolio"
    assert [r[0] for r in rows[1:]] == ["benchmark", "static", "dynamic"]
    dd_col = rows[0].index("max_drawdown")
    for r in rows[1:]:
        assert float(r[dd_col]) <= 0.0  # drawdowns display as losses


def exhibit3_rows(tmp_path, name, data):
    """exhibit 3's rows by portfolio, run on `data` in a directory of its own."""
    (tmp_path / name).mkdir()
    code, (table,) = run(tmp_path / name, "exhibit", "3", config_extra={"data": data})
    assert code == 0
    header, *rows = read_rows(table)
    return {r[0]: dict(zip(header, r)) for r in rows}


def test_a_risk_free_file_changes_only_the_sharpe_cells(tmp_path):
    data = {k: v for k, v in bench_style_data(tmp_path).items() if k in ("eq", "bd", "vix")}
    dates = [r[0] for r in read_rows(tmp_path / "eq.csv")[1:]]
    rate = 0.02  # a constant annual rate
    (tmp_path / "rf.csv").write_text("date,RATE\n" + "".join(f"{d},{rate}\n" for d in dates))
    base = exhibit3_rows(tmp_path, "base", data)
    with_rf = exhibit3_rows(tmp_path, "rf", {**data, "rf": {"path": str(tmp_path / "rf.csv"),
                                                            "column": "RATE"}})
    shared = Run(load_config(write_config(tmp_path, data=data), {}), "exhibit 3")
    for name, sim in (("benchmark", shared.bench), ("static", shared.static),
                      ("dynamic", shared.dynamic)):
        assert with_rf[name]["sharpe"] == _cell(sharpe(sim.portfolio, rate)) != \
            base[name]["sharpe"], name
        assert {k: v for k, v in with_rf[name].items() if k != "sharpe"} == \
            {k: v for k, v in base[name].items() if k != "sharpe"}, name


def test_a_spread_file_replaces_the_leg_difference(tmp_path):
    data = {k: v for k, v in bench_style_data(tmp_path).items() if k in ("eq", "bd", "vix")}
    base = exhibit3_rows(tmp_path, "base", data)
    # the synthetic panel's own spread leg, as index levels in the eq file
    rows = exhibit3_rows(tmp_path, "spread", {**data, "spread": {"path": data["eq"]["path"],
                                                                 "column": "SPREAD"}})
    assert rows["benchmark"] == base["benchmark"]
    assert rows["dynamic"] != base["dynamic"]

    # the same overlay built by hand from the file's columns
    header, *lines = read_rows(tmp_path / "eq.csv")
    col = dict(zip(header[1:], np.array([r[1:] for r in lines], dtype=float).T))
    cal = TradingCalendar([r[0] for r in lines[1:]])  # returns start on the second date
    legs = {h: Series(cal, col[h][1:] / col[h][:-1] - 1.0, UNIT_RETURN)
            for h in ("BENCH_EQ", "BENCH_BD", "SPREAD")}
    cfg = load_config(None, {})
    path = classify(Series(cal, col["VIX"][1:], UNIT_LEVEL), cfg.windows["signal"],
                    cfg.thresholds)
    vol_w = cfg.windows["vol"]
    sim = simulate_overlay(benchmark_7030(legs["BENCH_EQ"], legs["BENCH_BD"]), legs["SPREAD"],
                           sizing_vol(legs["SPREAD"], vol_w), path, cfg.dynamic_policy, vol_w)
    rep = summarize(sim.portfolio, rf=0.0, te=sim.te, smoothed_vix=path.signal)
    want = {m: getattr(rep, m) for m in METRICS}
    want["max_drawdown"] = -rep.max_drawdown
    assert {m: rows["dynamic"][m] for m in METRICS} == {m: _cell(v) for m, v in want.items()}


def test_omega_synthetic(tmp_path):
    code, files = run(tmp_path, "omega", "--horizons", "21,63")
    assert code == 0
    rows = read_rows(files[0])
    assert files[0].name.startswith("exhibit5_")
    assert rows[0][0] == "horizon_days"
    assert [r[0] for r in rows[1:]] == ["21", "63"]


def test_regret_synthetic_crisis(tmp_path):
    panel, _ = synth_regime_panel(SynthParams(horizon=900))
    dates = panel.calendar.dates
    crises = {"synth_dip": [dates[100].isoformat(), dates[400].isoformat()]}
    code, files = run(
        tmp_path, "regret", "--horizons", "21,63",
        config_extra={"synth": {"horizon": 900}, "crises": crises},
    )
    assert code == 0
    rows = read_rows(files[0])
    assert rows[0][0] == "crisis"
    assert [r[0] for r in rows[1:]] == ["synth_dip", "synth_dip"]
    assert [r[4] for r in rows[1:]] == ["21", "63"]
    for r in rows[1:]:
        assert float(r[7]) == pytest.approx(float(r[5]) - float(r[6]), abs=1e-15)


def test_regret_leaves_horizons_past_the_sample_empty(tmp_path, capsys):
    # the 1150-day default panel ends 162 trading days after the gfc trough
    code, files = run(tmp_path, "regret", config_extra={"synth": {"horizon": 1150}})
    err = capsys.readouterr().err
    assert code == 0, err
    rows = read_rows(files[0])
    assert [r[4] for r in rows[1:]] == ["63", "126", "252"]
    for r in rows[1:3]:
        assert "" not in r and np.isfinite([float(c) for c in r[2:]]).all()
    assert rows[3][5:] == ["", "", ""]
    assert "horizons past the end of the sample: gfc 252" in err


def test_sweep_synthetic(tmp_path):
    code, files = run(tmp_path, "sweep", "--windows", "1,21",
                      config_extra={"synth": {"horizon": 700}})
    assert code == 0
    rows = read_rows(files[0])
    assert rows[0][0] == "window"
    assert [r[0] for r in rows[1:]] == ["1", "21"]
    for r in rows[1:]:
        assert r[-1] in ("true", "false")


def test_sweep_window_21_row_equals_exhibit3(tmp_path):
    # the sweep's window-21 overlay is exhibit 3's dynamic overlay on the
    # thresholds that row fitted, and its static cells are exhibit 3's static row
    code, files = run(tmp_path, "sweep", "--windows", "5,21")
    assert code == 0
    header, _, row = read_rows(files[0])
    sweep = dict(zip(header, row))
    thresholds = {"low": float(sweep["threshold_low"]), "high": float(sweep["threshold_high"])}
    code, files = run(tmp_path, "exhibit", "3", config_extra={"thresholds": thresholds})
    assert code == 0
    header, _, static, dynamic = read_rows(next(f for f in files if f.name.startswith("exhibit3")))
    static, dynamic = dict(zip(header, static)), dict(zip(header, dynamic))
    for m in ("cagr", "sharpe", "cagr_over_maxdd"):
        assert sweep[m] == dynamic[m], m
        assert sweep[f"static_{m}"] == static[m], m
    assert float(sweep["excess_cagr"]) == float(sweep["cagr"]) - float(sweep["static_cagr"])
    passes = (float(sweep["sharpe"]) >= float(sweep["static_sharpe"]),
              float(sweep["cagr_over_maxdd"]) >= float(sweep["static_cagr_over_maxdd"]))
    assert [sweep[f"passes_{k}"] for k in ("sharpe", "calmar", "both")] == [
        "true" if p else "false" for p in (*passes, all(passes))]


def test_sweep_refits_thresholds_per_window(tmp_path):
    code, files = run(tmp_path, "sweep")
    assert code == 0
    rows = read_rows(files[0])[1:]
    assert [r[0] for r in rows] == ["1", "5", "21", "63"]
    # each window smooths the gauge differently, so fits its own thresholds
    assert len({r[1] for r in rows}) == len({r[2] for r in rows}) == 4


def test_converge_caps_flag_and_uncapped(tmp_path):
    code, files = run(
        tmp_path, "converge", "--caps", "0.01,uncapped",
        config_extra={"bootstrap": {"iterations": 200}},
    )
    assert code == 0
    rows = read_rows(files[0])
    assert files[0].name.startswith("exhibit7_")
    assert [r[0] for r in rows[1:]] == ["0.01", "uncapped"]
    for r in rows[1:]:
        lo, hi = float(r[7]), float(r[8])
        assert lo <= float(r[3]) <= hi  # CI brackets the sharpe point


def test_converge_cis_equal_single_series_bootstraps(tmp_path):
    # the caps share one draw of block starts; each row's CI must still be
    # the bootstrap of that cap's overlay alone
    extra = {"synth": {"horizon": 700}, "bootstrap": {"iterations": 200, "block": 30}}
    code, files = run(tmp_path, "converge", config_extra=extra)
    assert code == 0
    cfg = load_config(write_config(tmp_path, **extra), {})
    shared = Run(cfg, "converge")
    rows = read_rows(files[0])[1:]
    assert len(rows) == len(cfg.caps)
    for cap, row in zip(cfg.caps, rows):
        sim = shared.overlay(cfg.dynamic_policy.with_ceiling(cap))
        (boot,) = circular_block_bootstrap(sim.portfolio[None, :], cfg.bootstrap_spec)
        assert (float(row[7]), float(row[8])) == (boot.ci_lo, boot.ci_hi), row[0]


def test_drop_frees_what_a_run_built(tmp_path):
    # converge drops its inputs so that the bootstrap can reuse their memory
    shared = Run(load_config(write_config(tmp_path), {}), "converge")
    built = [weakref.ref(x) for x in (shared.market(), shared.bench, shared.vol, shared.path,
                                      shared.static, shared.dynamic)]
    shared.drop()
    assert [ref() for ref in built] == [None] * 6
    assert shared.bench is not None  # built again on the next read


INT_COLUMNS = {"horizon_days", "window", "prop", *(f"n_q{k}" for k in range(1, 6))}
BOOL_COLUMNS = {"passes_sharpe", "passes_calmar", "passes_both", "boundary"}
TEXT_COLUMNS = {"portfolio", "crisis", "trough_date", "status", "values", "note"}


def test_cells_print_in_one_format(tmp_path):
    assert [_cell(x) for x in (None, True, np.False_, 7, np.int64(-3), "a b",
                               0.1, np.float64(2.0), float("inf"))] == [
        "", "true", "false", "7", "-3", "a b", "0.1", "2.0", "inf"]
    panel, _ = synth_regime_panel(SynthParams(horizon=900))
    dates = panel.calendar.dates
    extra = {"synth": {"horizon": 900}, "bootstrap": {"iterations": 200},
             "crises": {"dip": [dates[500].isoformat(), dates[700].isoformat()]}}
    for form in (["exhibit", "3"], ["converge"], ["omega"], ["sweep"], ["props"],
                 ["regret", "--horizons", "21,400"]):  # 400 days run past the end
        assert run(tmp_path, *form, config_extra=extra)[0] == 0
    empty = set()
    for path in sorted((tmp_path / "out").glob("*.csv")):
        with path.open() as fh:
            header, *rows = csv.reader(fh)
        for row in rows:
            for name, cell in zip(header, row, strict=True):
                if name in INT_COLUMNS:
                    assert re.fullmatch(r"-?\d+", cell), (path.name, name, cell)
                elif name in BOOL_COLUMNS:
                    assert cell in ("true", "false"), (path.name, name, cell)
                elif name in TEXT_COLUMNS or cell == "uncapped":
                    continue
                elif cell == "":
                    empty.add((path.name.split("_")[0], name))
                else:
                    assert repr(float(cell)) == cell, (path.name, name, cell)
    # the benchmark row has no tracking error; the 400-day horizon no outcome
    assert empty == {("exhibit3", "te_level"), ("exhibit3", "te_sigma"),
                     ("exhibit3", "te_cyclicality"), ("exhibit6b", "stay_70_30"),
                     ("exhibit6b", "derisk_30_70"), ("exhibit6b", "regret")}


def test_exhibit4_svg_emitted(tmp_path):
    cfg = write_config(tmp_path, svg=True)
    out = tmp_path / "out"
    code = main(["exhibit", "4", "--config", cfg, "--out", str(out)])
    assert code == 0
    names = sorted(p.name for p in out.glob("*"))
    assert any(n.startswith("exhibit4_") and n.endswith(".csv") for n in names)
    assert any(n.startswith("exhibit4_") and n.endswith(".svg") for n in names)


SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_series(root):
    """series name -> list of polylines, each a list of (x, y) points"""
    out = {}
    for g in root.iter(f"{SVG_NS}g"):
        if "data-series" in g.attrib:
            out[g.attrib["data-series"]] = [
                [tuple(map(float, pt.split(","))) for pt in pl.attrib["points"].split()]
                for pl in g.iter(f"{SVG_NS}polyline")
            ]
    return out


def test_exhibit4_svg_byte_stable_and_well_formed(tmp_path):
    cfg = write_config(tmp_path, svg=True)
    out = tmp_path / "out"
    blobs = []
    for _ in range(2):
        assert main(["exhibit", "4", "--config", cfg, "--out", str(out)]) == 0
        (svg,) = out.glob("exhibit4_*.svg")
        blobs.append(svg.read_bytes())
    assert blobs[0] == blobs[1]
    series = svg_series(ET.fromstring(blobs[0]))
    assert set(series) == {"static", "dynamic"}
    for lines in series.values():
        assert lines and all(len(pl) >= 2 for pl in lines)


def test_date_columns_print_as_iso_dates(tmp_path):
    dates = [dt.date(1, 1, 1), dt.date(999, 12, 31), dt.date(2000, 2, 29), dt.date(9999, 12, 31)]
    cal = TradingCalendar(dates)
    assert _column_text(cal.days) == [d.isoformat() for d in dates] == list(
        map(_cell, cal.dates))
    # a chart reads the calendar's days and its dates alike
    cfg = load_config(None, {"out": str(tmp_path)})
    named = {"x": [1.0, 2.0, 3.0, 4.0]}
    texts = [_svg(cfg, stem, stem, d, named, "y").read_text()
             for stem, d in (("days", cal.days), ("dates", cal.dates))]
    assert texts[0] == texts[1] and ">0001-01-01<" in texts[0] and ">9999-12-31<" in texts[0]


def test_svg_writer_gaps_constant_and_escaping(tmp_path):
    cfg = load_config(None, {"out": str(tmp_path)})
    dates = [dt.date(2020, 1, 6) + dt.timedelta(days=i) for i in range(8)]
    nan, inf = float("nan"), float("inf")
    charts = {
        "gaps": {"gappy <a&b>": [1.0, 2.0, nan, 3.0, 4.0, inf, nan, 5.0],
                 "empty": [nan] * 8},
        "constant": {"flat": [0.5] * 8},
        "blank": {"empty": [nan] * 8},
    }
    texts = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stem, named in charts.items():
            path = _svg(cfg, stem, stem, dates, named, 'y "&" <z>')
            texts[stem] = path.read_text()
    roots = {stem: ET.fromstring(t) for stem, t in texts.items()}
    for stem, text in texts.items():
        assert "nan" not in text.lower() and "inf" not in text.lower(), stem
        labels = [t.text for t in roots[stem].iter(f"{SVG_NS}text")]
        assert 'y "&" <z>' in labels and "2020-01-06" in labels and "2020-01-13" in labels
    gaps = svg_series(roots["gaps"])
    assert [len(pl) for pl in gaps["gappy <a&b>"]] == [2, 2, 1]
    assert gaps["empty"] == []
    (flat,) = svg_series(roots["constant"])["flat"]
    assert len(flat) == 8 and len({y for _, y in flat}) == 1
    assert svg_series(roots["blank"]) == {"empty": []}


def test_console_script_props(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        ["dynte", "props", "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith(".csv")
    assert sys.executable  # keep the import honest
