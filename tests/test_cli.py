import csv
import datetime as dt
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from dynte.cli import (COMMANDS, CONFIG_VERSION, ConfigError, Run, Table, _cell, _column_text,
                       _svg, _write_tables, cmd_converge, cmd_regret, load_config, main)
from dynte.inference import circular_block_bootstrap
from dynte.metrics import excess_returns, sharpe, summarize
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


def test_seed_changes_hash_and_content(tmp_path):
    _, base = run(tmp_path, "synth")
    _, seeded = run(tmp_path, "synth", config_extra={"seed": 7})
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


def test_the_import_heap_is_frozen_once_per_process(tmp_path):
    proc = subprocess.run([sys.executable, "-c",
                           "import dynte.cli, gc; print(gc.get_freeze_count())"],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                          text=True, check=True)
    assert int(proc.stdout) > 0
    # a call freezes nothing more, so no call's garbage outlives it
    before = gc.get_freeze_count()
    for _ in range(2):
        assert run(tmp_path, "props")[0] == 0
    assert gc.get_freeze_count() == before


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


def test_a_config_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    text = json.dumps({"version": CONFIG_VERSION, "svg": False})
    outputs = []
    for data in (text.encode(), b"\xef\xbb\xbf" + text.encode()):
        cfg.write_bytes(data)
        out = tmp_path / f"o{len(outputs)}"
        assert main(["props", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1] and outputs[0]


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes('{"crises": {"gfc_\u00e9": ["2007-10-01", "2009-06-30"]}}'.encode("latin-1"))
    assert main(["regret", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: config: not UTF-8 text\n"
    assert not (tmp_path / "o").exists()


def test_a_crisis_name_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # JSON's \ud800 escape decodes to a lone surrogate, which no CSV can hold
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.csv").write_text("kept\n")
    code, files = run(tmp_path, "exhibit", "6", config_extra={
        "crises": {"gfc_\ud800": ["2007-10-01", "2009-06-30"]}})
    assert code == 2
    assert capsys.readouterr().err == \
        "config error: crises: name 'gfc_\\ud800' is not UTF-8 text\n"
    assert os.listdir(out) == ["earlier.csv"] and files[0].read_text() == "kept\n"


@pytest.mark.parametrize("name", ["gfc\rcovid", "gfc\ncovid"], ids=["cr", "lf"])
def test_a_crisis_name_that_breaks_a_line_is_a_config_error(tmp_path, capsys, name):
    # a bare carriage return leaves csv.writer unquoted and splits the row
    code, files = run(tmp_path, "regret", config_extra={
        "crises": {name: ["2007-10-01", "2009-06-30"]}})
    assert code == 2 and files == []
    assert capsys.readouterr().err == \
        f"config error: crises: name {name!r} is not one line of text\n"


@pytest.mark.parametrize("out,flag", [("afile", False), ("afile/sub", True)],
                         ids=["config", "flag below"])
def test_an_out_that_names_a_file_is_a_config_error(tmp_path, capsys, out, flag):
    (tmp_path / "afile").write_text("kept\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({} if flag else {"out": str(tmp_path / out)}))
    argv = ["exhibit", "3", "--config", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / out)] if flag else argv) == 2
    # refused before the synthetic panel is built, whose line would come first
    assert capsys.readouterr().err == \
        f"config error: out: {str(tmp_path / 'afile')!r} is not a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["afile", "cfg.json"]
    assert (tmp_path / "afile").read_text() == "kept\n"


# JSON escapes for a lone surrogate, which no file name can hold
@pytest.mark.parametrize("cfg,field,path", [
    ({"out": "o\ud800"}, "out", "o\ud800"),
    ({"data": {"eq": {"path": "x\ud800.csv", "column": "EQ"}}}, "data.eq.path", "x\ud800.csv"),
], ids=["out", "data.eq.path"])
def test_a_path_that_is_not_utf8_is_a_config_error(tmp_path, capsys, cfg, field, path):
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["props", "--config", str(tmp_path / "cfg.json")]) == 2
    assert capsys.readouterr().err == f"config error: {field}: path {path!r} is not UTF-8 text\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("synth", [{"sigma": [50, 50]}, {"eq_drift": [-300, -300]}],
                         ids=["sigma", "eq_drift"])
@pytest.mark.parametrize("form", [["exhibit", "3"], ["synth"]], ids=" ".join)
def test_synthetic_draws_that_are_not_returns_name_synth(tmp_path, capsys, synth, form):
    code, files = run(tmp_path, *form, config_extra={"synth": {"horizon": 300, **synth}})
    assert code == 1 and files == []
    assert capsys.readouterr().err == "error: synth: simple returns must be finite and > -1\n"


def test_a_failed_command_publishes_nothing(tmp_path, monkeypatch, capsys):
    import dynte.cli

    code, earlier = run(tmp_path, "exhibit", "6", config_extra={"svg": True})
    assert code == 0 and len(earlier) == 3
    for f in earlier:
        f.write_text("an earlier run\n")

    def fails(*args):
        raise ValueError("no regret table")
    monkeypatch.setattr(dynte.cli, "regret_table", fails)
    # the second table fails after the first was computed: neither is
    # published, nothing is written, and earlier files keep their bytes
    fresh = tmp_path / "fresh"
    code = main(["exhibit", "6", "--config", write_config(tmp_path, svg=True),
                 "--out", str(fresh)])
    assert code == 1 and capsys.readouterr().err.endswith("error: no regret table\n")
    assert not fresh.exists()
    assert run(tmp_path, "exhibit", "6", config_extra={"svg": True}) == (1, earlier)
    assert sorted(os.listdir(tmp_path / "out")) == sorted(f.name for f in earlier)
    assert all(f.read_text() == "an earlier run\n" for f in earlier)


@pytest.mark.parametrize("role", [None, "eq", "sectors"], ids=["config", "eq", "sectors"])
def test_an_unreadable_path_is_a_config_error(tmp_path, capsys, role):
    folder = tmp_path / "adir"
    folder.mkdir()
    if role is None:
        argv, fieldname = ["props", "--config", str(folder)], "config"
    else:
        spec = {"path": str(folder)} if role == "sectors" else {"path": str(folder),
                                                                "column": "A"}
        cfg = write_config(tmp_path, data={role: spec})
        argv, fieldname = ["props", "--config", cfg], f"data.{role}.path"
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {fieldname}: cannot read {folder}: Is a directory\n")


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


@pytest.mark.parametrize("columns", [[], ["XLB", "XLB"]], ids=["empty", "repeated"])
def test_a_bad_sector_column_list_names_the_setting(tmp_path, capsys, monkeypatch, columns):
    import dynte.cli

    monkeypatch.setattr(dynte.cli, "ingest_csv", None)  # no file is read
    data = {"sectors": {"path": __file__, "columns": columns},
            "vix": {"path": __file__, "column": "VIX"}}
    code, files = run(tmp_path, "exhibit", "1", config_extra={"data": data})
    assert (code, files) == (2, [])
    assert capsys.readouterr().err == ("config error: data.sectors.columns: expected one or "
                                       f"more names, none twice, got {columns}\n")


def test_exhibit1_needs_two_sector_columns(tmp_path, capsys):
    _, files = run(tmp_path, "synth", config_extra={"synth": {"horizon": 300}})
    panel = str(next(f for f in files if f.name.startswith("synth_panel")))
    data = {"sectors": {"path": panel, "columns": ["BENCH_EQ"]},
            "vix": {"path": panel, "column": "VIX"}}
    code, _ = run(tmp_path, "exhibit", "1", config_extra={"data": data})
    assert code == 2
    assert capsys.readouterr().err.endswith(
        "config error: data.sectors: need at least two sector columns\n")


def test_a_null_data_role_is_skipped(tmp_path, capsys):
    code, files = run(tmp_path, "exhibit", "3", config_extra={"data": {"eq": None}})
    assert code == 0 and files
    assert "data: synthetic panel" in capsys.readouterr().err


def test_exhibit_number_out_of_range(tmp_path, capsys):
    code, _ = run(tmp_path, "exhibit", "9")
    assert code == 2
    assert "1..7" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--seed", "5"), ("--caps", "0.01,uncapped"),
                                        ("--windows", "1,21"), ("--horizons", "21,63")])
def test_settings_have_no_flags(tmp_path, capsys, flag, value):
    # each is a config key: seed, caps, sweep_windows, omega_/regret_horizons
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "converge", flag, value)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_readme_flags_are_the_parsers_options(capsys):
    # the README's `Flags:` sentence names exactly what each subcommand takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"^Flags:(.*?)\.\s", readme, re.M | re.S).group(1)
    listed = set(re.findall(r"`(--[\w-]+)", sentence))
    for name in COMMANDS:
        with pytest.raises(SystemExit):
            main([name, "--help"])
        options = set(re.findall(r"(?<![\w-])(--[\w-]+)", capsys.readouterr().out))
        assert options - {"--help"} == listed, name


def test_config_error_field_attribute():
    # an empty list is an error, not the default
    for field in ("caps", "sweep_windows"):
        with pytest.raises(ConfigError) as exc:
            load_config(None, {field: []})
        assert exc.value.field == field


@pytest.mark.parametrize("name,days", [("vol", 0), ("signal", -21)])
def test_a_window_is_a_positive_day_count(name, days):
    with pytest.raises(ConfigError) as exc:
        load_config(None, {"windows": {name: days}})
    assert str(exc.value) == f"windows.{name}: expected a positive integer, got {days}"


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
    # a negative seed, which numpy's generator would refuse naming no setting
    ({"seed": -1}, "seed"),
    ({"synth": {"seed": -3}}, "synth"),
    # refused before any file is read
    ({"seed": -1, "data": {"eq": {"path": "missing.csv", "column": "EQ"}}}, "seed"),
    ({"data": {"eq": "eq.csv"}}, "data.eq"),
    ([{"seed": 1}], "config"),
    ({"crises": {"gfc": ["2007-10-01"]}}, "crises.gfc"),
])
def test_config_type_errors_name_the_field(tmp_path, capsys, cfg, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["props", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


# json.load takes NaN, Infinity and -Infinity
@pytest.mark.parametrize("form,text,field,value", [
    (["converge"], '{"caps": [Infinity]}', "caps[0]", "inf"),
    (["exhibit", "3"], '{"synth": {"alpha": [Infinity, 0.1]}}', "synth.alpha[0]", "inf"),
    (["converge"], '{"synth": {"sigma": [NaN, 0.1]}}', "synth.sigma[0]", "nan"),
    (["omega"], '{"synth": {"vix_noise": NaN}}', "synth.vix_noise", "nan"),
    (["props"], '{"model": {"alpha": [NaN, 0.1]}}', "model.alpha[0]", "nan"),
    (["exhibit", "3"], '{"policy": {"theta_cap": Infinity}}', "policy.theta_cap", "inf"),
    (["exhibit", "3"], '{"thresholds": {"high": -Infinity}}', "thresholds.high", "-inf"),
], ids=["caps", "synth.alpha", "synth.sigma", "synth.vix_noise",
        "model.alpha", "policy.theta_cap", "thresholds.high"])
def test_a_non_finite_number_names_its_setting(tmp_path, capsys, form, text, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main([*form, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {field}: expected a finite number, got {value}\n")
    assert not (tmp_path / "o").exists()


# every command form, read off the command table: an exhibit number is a form
FORMS = [form for name, (_, cmd) in COMMANDS.items()
         for form in ([(name, str(n)) for n in cmd] if isinstance(cmd, dict) else [(name,)])]


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
    for form, days, field, extra in (
            (["exhibit", "2"], 100, "windows.stock_bond_corr", {}),
            (["exhibit", "4"], 100, "windows.vol", {}),
            (["omega"], 100, "omega_horizons", {}),
            (["sweep"], 50, "windows.vol", {}),
            (["exhibit", "3"], 15, "windows.vol", {}),
            (["converge"], 15, "windows.signal", {}),
            (["sweep"], 15, "windows.vol", {}),
            (["sweep"], 700, "sweep_windows[1]", {"sweep_windows": [21, 800]})):
        code, _ = run(tmp_path, *form, config_extra={"synth": {"horizon": days}, **extra})
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


def test_a_bootstrap_block_as_long_as_the_sample_is_refused(tmp_path, capsys):
    # one block of the whole sample makes every resample a rotation of it
    n = len(synth_regime_panel(SynthParams(horizon=300))[0].calendar)
    extra = {"synth": {"horizon": 300}, "caps": [0.02]}
    code, files = run(tmp_path, "converge", config_extra={
        **extra, "bootstrap": {"block": n, "iterations": 50}})
    assert code == 1 and files == []
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: bootstrap.block: the {n}-day block must be shorter than the "
        f"{n}-day series it resamples")
    code, files = run(tmp_path, "converge", config_extra={
        **extra, "bootstrap": {"block": n - 1, "iterations": 50}})
    assert code == 0 and len(files) == 1, capsys.readouterr().err


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


@pytest.mark.parametrize("source", ["synthetic", "files"])
@pytest.mark.parametrize("start,end,message", [
    ("2030-01-01", None, "no calendar dates in [2030-01-01, 2005-12-02]"),
    ("2005-01-03", "2005-01-04", "fewer than three shared dates"),
], ids=["no dates", "two dates"])
def test_a_range_that_leaves_too_few_dates_names_range(tmp_path, capsys, source, start, end,
                                                       message):
    # the 500-day panel runs from 2004-01-05 to 2005-12-02; file data is
    # that panel written out by synth
    extra = {"range": {"start": start, "end": end}}
    if source == "files":
        _, files = run(tmp_path, "synth")
        panel = str(next(f for f in files if f.name.startswith("synth_panel")))
        extra["data"] = {r: {"path": panel, "column": c}
                         for r, c in (("eq", "BENCH_EQ"), ("bd", "BENCH_BD"), ("vix", "VIX"))}
    code, files = run(tmp_path, "converge", config_extra=extra)
    assert code == 1 and not [f for f in files if f.name.startswith("exhibit7_")]
    assert capsys.readouterr().err.splitlines()[-1] == f"error: range: {message}"


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
    # the names the --caps/--seed and --horizons flags' runs had on an empty config
    (("converge",), {"caps": [0.01, None], "seed": 5}, ["exhibit7_ad86a7041973.csv"]),
    (("omega",), {"omega_horizons": [21, 63], "regret_horizons": [21, 63]},
     ["exhibit5_4d64fcab2c7e.csv"]),
], ids=["props-empty", "synth-empty", "props-int-model", "converge-caps-seed",
        "omega-horizons"])
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
    extra = {"data": data, "omega_horizons": [21, 63]}
    code, first = run(tmp_path, "omega", config_extra=extra)
    assert code == 0
    omega = [f.name for f in first if f.name.startswith("exhibit5_")]
    lines = panel.read_text().splitlines()
    lines[-1] = ",".join(lines[-1].split(",")[:-1] + ["20.5"])  # one VIX cell
    panel.write_text("\n".join(lines) + "\n")
    code, second = run(tmp_path, "omega", config_extra=extra)
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


def test_a_repeated_header_column_names_its_file(tmp_path, capsys):
    _, files = run(tmp_path, "synth")
    panel = next(f for f in files if f.name.startswith("synth_panel"))
    head, body = panel.read_text().split("\n", 1)
    bad = tmp_path / "vix.csv"
    bad.write_text(f"{head},VIX\n" + body.replace("\n", ",1.0\n"))  # two VIX columns
    data = {r: {"path": str(bad if r == "vix" else panel), "column": c}
            for r, c in (("eq", "BENCH_EQ"), ("bd", "BENCH_BD"), ("vix", "VIX"))}
    capsys.readouterr()
    code, _ = run(tmp_path, "exhibit", "3", config_extra={"data": data})
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: duplicate column 'VIX' in header\n"


def test_a_csv_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    bom, data = panel_with_bad_eq(tmp_path, lambda lines: lines)
    bom.write_bytes(b"\xef\xbb\xbf" + bom.read_bytes())
    tables = []
    for eq in (bom, data["bd"]["path"]):
        data["eq"]["path"] = str(eq)
        here = tmp_path / str(len(tables))
        here.mkdir()
        code, files = run(here, "exhibit", "3", config_extra={"data": data})
        assert code == 0, capsys.readouterr().err
        tables.append(sorted(f.read_bytes() for f in files))
    assert tables[0] == tables[1]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_csv_byte_that_is_not_utf8_names_its_file_and_line(tmp_path, capsys, newline):
    bad, data = panel_with_bad_eq(tmp_path, lambda lines: lines)
    lines = bad.read_bytes().split(b"\n")
    lines[40] += b",\xe9"                               # line 41 of the file
    bad.write_bytes(newline.encode().join(lines))
    capsys.readouterr()
    code, _ = run(tmp_path, "exhibit", "3", config_extra={"data": data})
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}:41: not UTF-8 text\n"


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


def panel_with_bad_eq(tmp_path, edit):
    """The synthetic panel as the eq file, its lines passed through `edit`,
    with the panel itself as bd and vix; returns the eq file and the data."""
    _, files = run(tmp_path, "synth")
    panel = next(f for f in files if f.name.startswith("synth_panel"))
    bad = tmp_path / "eq.csv"
    bad.write_text("\n".join(edit(panel.read_text().splitlines())) + "\n")
    data = {r: {"path": str(bad if r == "eq" else panel), "column": c}
            for r, c in (("eq", "BENCH_EQ"), ("bd", "BENCH_BD"), ("vix", "VIX"))}
    return bad, data


@pytest.mark.parametrize("pad", ["", " "], ids=["plain row", "row-by-row"])
def test_a_weekend_date_names_its_file_and_line(tmp_path, capsys, pad):
    line = saturday = None

    def add_saturday(lines):
        # after the first Friday from line 41 on, the same values on its Saturday
        nonlocal line, saturday
        k = next(i for i in range(40, len(lines))
                 if dt.date.fromisoformat(lines[i][:10]).weekday() == 4)
        date, rest = lines[k].split(",", 1)
        line, saturday = k + 2, dt.date.fromisoformat(date) + dt.timedelta(days=1)
        return lines[:k + 1] + [f"{saturday},{pad}{rest}"] + lines[k + 1:]

    bad, data = panel_with_bad_eq(tmp_path, add_saturday)
    capsys.readouterr()
    code, _ = run(tmp_path, "exhibit", "3", config_extra={"data": data})
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:{line}: date {saturday} falls on a weekend\n")


@pytest.mark.parametrize("cell,value", [("0", "0.0"), ("-1.5", "-1.5"), (" -0", "-0.0")],
                         ids=["zero", "negative", "row-by-row"])
def test_a_non_positive_price_names_its_file_line_and_column(tmp_path, capsys, cell, value):
    def set_cell(lines):
        header, row = lines[0].split(","), lines[40].split(",")
        row[header.index("BENCH_EQ")] = cell           # line 41 of the file
        return lines[:40] + [",".join(row)] + lines[41:]

    bad, data = panel_with_bad_eq(tmp_path, set_cell)
    capsys.readouterr()
    code, _ = run(tmp_path, "exhibit", "3", config_extra={"data": data})
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:41: non-positive price {value} in column BENCH_EQ\n")


@pytest.mark.parametrize("role,spec,key", [
    ("sectors", {"column": "XLB"}, "column"),
    ("eq", {"column": "A", "colunm": "B"}, "colunm"),
    ("vix", {"columns": ["VIX"]}, "columns"),
])
def test_an_unknown_key_of_a_data_role_is_a_config_error(tmp_path, capsys, role, spec, key):
    # the path names no file: the key is refused before any file is read
    data = {role: {"path": str(tmp_path / "missing.csv"), **spec}}
    code, files = run(tmp_path, "exhibit", "1" if role == "sectors" else "3",
                      config_extra={"data": data})
    assert (code, files) == (2, [])
    assert capsys.readouterr().err == f"config error: data.{role}.{key}: unknown config key\n"


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


def test_commands_compute_tables_and_write_nothing(tmp_path):
    # a command returns its tables as values; only main's writer makes files
    out = tmp_path / "never"
    empty = load_config(None, {"out": str(out)})
    data = {role: spec for role, spec in bench_style_data(tmp_path).items()
            if role in ("sectors", "vix")}
    sectors = load_config(None, {"out": str(out), "data": data})
    for form in FORMS:
        command = COMMANDS[form[0]][1]
        if isinstance(command, dict):
            command = command[int(form[1])]
        tables = command(Run(sectors if form == ("exhibit", "1") else empty, " ".join(form)))
        assert tables and all(isinstance(t, Table) for t in tables), form
        for t in tables:
            assert len(t.columns) == len(t.header), (form, t.stem)
            assert len({len(column) for column in t.columns}) == 1, (form, t.stem)
    # a table of no rows still has a column per header field
    (t,) = cmd_regret(Run(load_config(None, {"out": str(out), "crises": {}}), "regret"))
    assert t.columns == [[]] * len(t.header)
    assert not out.exists()


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
    for name, returns in (("benchmark", shared.bench.values), ("static", shared.static.portfolio),
                          ("dynamic", shared.dynamic.portfolio)):
        assert with_rf[name]["sharpe"] == _cell(sharpe(returns, rate)) != \
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
                           sizing_vol(legs["SPREAD"], vol_w), path, cfg.dynamic_policy)
    rep = summarize(sim.portfolio, rf=0.0, te=sim.te, smoothed_vix=path.signal)
    want = {m: getattr(rep, m) for m in METRICS}
    want["max_drawdown"] = -rep.max_drawdown
    assert {m: rows["dynamic"][m] for m in METRICS} == {m: _cell(v) for m, v in want.items()}


def test_omega_synthetic(tmp_path):
    code, files = run(tmp_path, "omega", config_extra={"omega_horizons": [21, 63]})
    assert code == 0
    rows = read_rows(files[0])
    assert files[0].name.startswith("exhibit5_")
    assert rows[0][0] == "horizon_days"
    assert [r[0] for r in rows[1:]] == ["21", "63"]


def test_regret_synthetic_crisis(tmp_path):
    panel, _ = synth_regime_panel(SynthParams(horizon=900))
    dates = panel.calendar.days.tolist()
    crises = {"synth_dip": [dates[100].isoformat(), dates[400].isoformat()]}
    code, files = run(tmp_path, "regret", config_extra={
        "synth": {"horizon": 900}, "crises": crises, "regret_horizons": [21, 63]})
    assert code == 0
    rows = read_rows(files[0])
    assert rows[0][0] == "crisis"
    assert [r[0] for r in rows[1:]] == ["synth_dip", "synth_dip"]
    assert [r[4] for r in rows[1:]] == ["21", "63"]
    for r in rows[1:]:
        assert float(r[7]) == pytest.approx(float(r[5]) - float(r[6]), abs=1e-15)


def test_regret_reads_the_gauge_on_each_trough_date(tmp_path):
    # from files the gauge keeps the price calendar's extra leading date
    data = bench_style_data(tmp_path)
    header, *body = read_rows(Path(data["vix"]["path"]))
    gauge = {r[0]: r[header.index("VIX")] for r in body}
    dates = [r[0] for r in body]
    crises = {f"dip_{i}": [dates[i], dates[i + 200]] for i in (100, 400, 650)}
    code, files = run(tmp_path, "exhibit", "6", config_extra={"data": data, "crises": crises})
    assert code == 0
    rows = read_rows(next(f for f in files if f.name.startswith("exhibit6b_")))[1:]
    assert sorted({r[0] for r in rows}) == sorted(crises)
    for r in rows:
        assert r[3] == gauge[r[1]], r


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
    code, files = run(tmp_path, "sweep",
                      config_extra={"synth": {"horizon": 700}, "sweep_windows": [1, 21]})
    assert code == 0
    rows = read_rows(files[0])
    assert rows[0][0] == "window"
    assert [r[0] for r in rows[1:]] == ["1", "21"]
    for r in rows[1:]:
        assert r[-1] in ("true", "false")


def test_sweep_window_21_row_equals_exhibit3(tmp_path):
    # the sweep's window-21 overlay is exhibit 3's dynamic overlay on the
    # thresholds that row fitted, and its static cells are exhibit 3's static row
    code, files = run(tmp_path, "sweep", config_extra={"sweep_windows": [5, 21]})
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


def test_converge_caps_and_uncapped(tmp_path):
    code, files = run(tmp_path, "converge",
                      config_extra={"caps": [0.01, None], "bootstrap": {"iterations": 200}})
    assert code == 0
    rows = read_rows(files[0])
    assert files[0].name.startswith("exhibit7_")
    assert [r[0] for r in rows[1:]] == ["0.01", "uncapped"]
    for r in rows[1:]:
        lo, hi = float(r[7]), float(r[8])
        assert lo <= float(r[3]) <= hi  # CI brackets the sharpe point


def test_converge_cis_equal_single_series_bootstraps(tmp_path):
    # each row's CI is the bootstrap of that cap's overlay alone
    extra = {"synth": {"horizon": 700}, "bootstrap": {"iterations": 200, "block": 30}}
    code, files = run(tmp_path, "converge", config_extra=extra)
    assert code == 0
    cfg = load_config(write_config(tmp_path, **extra), {})
    shared = Run(cfg, "converge")
    rows = read_rows(files[0])[1:]
    assert len(rows) == len(cfg.caps)
    for cap, row in zip(cfg.caps, rows):
        sim = shared.overlay(cfg.dynamic_policy.with_ceiling(cap))
        boot = circular_block_bootstrap(sim.portfolio, cfg.bootstrap_spec)
        assert (float(row[7]), float(row[8])) == (boot.ci_lo, boot.ci_hi), row[0]


def test_converge_cis_are_of_the_excess_return_sharpe(tmp_path):
    # with a risk-free file, each row's CI is the bootstrap of its overlay's
    # returns less rf, so it brackets the excess-return Sharpe the row reports
    data = {k: v for k, v in bench_style_data(tmp_path).items() if k in ("eq", "bd", "vix")}
    dates = [r[0] for r in read_rows(tmp_path / "eq.csv")[1:]]
    rate = 0.03  # a constant annual rate
    (tmp_path / "rf.csv").write_text("date,RATE\n" + "".join(f"{d},{rate}\n" for d in dates))
    data["rf"] = {"path": str(tmp_path / "rf.csv"), "column": "RATE"}
    extra = {"data": data, "caps": [0.005, 0.05, None], "bootstrap": {"iterations": 500}}
    code, files = run(tmp_path, "converge", config_extra=extra)
    assert code == 0
    cfg = load_config(write_config(tmp_path, **extra), {})
    shared = Run(cfg, "converge")
    header, *rows = read_rows(next(f for f in files if f.name.startswith("exhibit7_")))
    assert len(rows) == len(cfg.caps)
    for cap, row in zip(cfg.caps, rows):
        row = dict(zip(header, row))
        sim = shared.overlay(cfg.dynamic_policy.with_ceiling(cap))
        boot = circular_block_bootstrap(excess_returns(sim.portfolio, rate), cfg.bootstrap_spec)
        assert (row["sharpe_ci_lo"], row["sharpe_ci_hi"]) == (_cell(boot.ci_lo),
                                                              _cell(boot.ci_hi)), cap
        assert row["sharpe"] == _cell(sharpe(sim.portfolio, rate)), cap
        assert boot.ci_lo <= float(row["sharpe"]) <= boot.ci_hi, cap


def test_converge_memory_does_not_grow_with_the_caps(tmp_path):
    # each cap is bootstrapped as it is simulated, so a cap more holds
    # neither its portfolio nor its tables and statistics past its own row
    n, iterations = 2000, 2000
    extra = {"synth": {"horizon": n}, "bootstrap": {"iterations": iterations},
             "out": str(tmp_path / "o")}
    every, peaks = load_config(None, {}).caps, []
    for caps in (every[:1], every):
        shared = Run(load_config(write_config(tmp_path, caps=caps, **extra), {}), "converge")
        shared.market()
        tracemalloc.start()
        try:
            (table,) = cmd_converge(shared)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert table.columns[0] == caps
    assert peaks[1] - peaks[0] < 10 * (2 * n + iterations) * 8 / 4, peaks


INT_COLUMNS = {"horizon_days", "window", "prop", *(f"n_q{k}" for k in range(1, 6))}
BOOL_COLUMNS = {"passes_sharpe", "passes_calmar", "passes_both", "boundary"}
TEXT_COLUMNS = {"portfolio", "crisis", "trough_date", "status", "values", "note"}


def test_cells_print_in_one_format(tmp_path):
    assert [_cell(x) for x in (None, True, np.False_, 7, np.int64(-3), "a b",
                               0.1, np.float64(2.0), float("inf"))] == [
        "", "true", "false", "7", "-3", "a b", "0.1", "2.0", "inf"]
    panel, _ = synth_regime_panel(SynthParams(horizon=900))
    dates = panel.calendar.days.tolist()
    extra = {"synth": {"horizon": 900}, "bootstrap": {"iterations": 200},
             "crises": {"dip": [dates[500].isoformat(), dates[700].isoformat()]},
             "regret_horizons": [21, 400]}  # 400 days run past the end
    for form in (["exhibit", "3"], ["converge"], ["omega"], ["sweep"], ["props"], ["regret"]):
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


def test_tables_are_written_as_csv_writer_writes_them(tmp_path):
    days = np.arange("2024-01-01", "2024-01-07", dtype="datetime64[D]")
    header = ["date", "x,y", 'say "q"', "n", "flag", "maybe", "text"]
    columns = [days, np.array([0.1, -2.5e-300, 1 / 3, 1e22, -0.0, 7.0]),
               [1, np.int64(-2), 0, 10**20, 5, 6],
               [True, np.bool_(False), False, True, np.True_, False],
               [None, 1.5, None, 2.0, None, 3.0],
               ["a,b", 'say "hi"', "two\nlines", " padded ", "", "Zürich ≥ 2 – ok"]]
    texts = [[d.isoformat() for d in days.tolist()], list(map(repr, columns[1].tolist())),
             ["1", "-2", "0", str(10**20), "5", "6"],
             ["true", "false", "false", "true", "true", "false"],
             ["", "1.5", "", "2.0", "", "3.0"], columns[5]]
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*texts))
    cfg = load_config(write_config(tmp_path), {"out": str(tmp_path / "o")})
    (path,) = _write_tables(cfg, [Table("t", "t", header, columns)])
    assert path.read_bytes() == want.getvalue().encode("utf-8")
    with path.open(newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [header, *map(list, zip(*texts))]


def test_a_failed_write_publishes_no_file(tmp_path):
    out = tmp_path / "o"
    cfg = load_config(write_config(tmp_path, svg=True), {"out": str(out)})
    days = np.arange("2024-01-01", "2024-01-03", dtype="datetime64[D]")
    good = Table("good", "good", ["date", "y"], [days, [1.0, 2.0]], {"y": "y"})
    # the good table's CSV and SVG are written before the bad cell fails
    with pytest.raises(TypeError):
        _write_tables(cfg, [good, Table("bad", "bad", ["x"], [[object()]])])
    assert os.listdir(out) == []
    paths = _write_tables(cfg, [good])
    assert [p.suffix for p in paths] == [".csv", ".svg"]
    assert sorted(os.listdir(out)) == sorted(p.name for p in paths)


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
        map(_cell, dates))
    # a chart reads the calendar's days and a list of dates alike
    named = {"x": [1.0, 2.0, 3.0, 4.0]}
    texts = [_svg(d, named, "y") for d in (cal.days, dates)]
    assert texts[0] == texts[1] and ">0001-01-01<" in texts[0] and ">9999-12-31<" in texts[0]


def test_svg_writer_gaps_constant_and_escaping(tmp_path):
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
            texts[stem] = _svg(dates, named, 'y "&" <z>')
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
