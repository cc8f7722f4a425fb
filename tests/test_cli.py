import csv
import datetime as dt
import hashlib
import json
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dynte.cli import CONFIG_VERSION, ConfigError, _cell, _maybe_svg, load_config, main
from dynte.events import QuintileReport
from dynte.timeseries import SynthParams, synth_regime_panel


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
    code, _ = run(tmp_path, "converge", "--caps", "0.01,wat")
    assert code == 2
    assert "--caps" in capsys.readouterr().err


def test_bad_windows_flag(tmp_path, capsys):
    code, _ = run(tmp_path, "sweep", "--windows", "5,x")
    assert code == 2
    assert "--windows" in capsys.readouterr().err


def test_config_error_field_attribute():
    with pytest.raises(ConfigError) as exc:
        load_config(None, {"caps": []})
    assert exc.value.field == "caps"


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


def test_omega_synthetic(tmp_path):
    code, files = run(tmp_path, "omega", "--horizons", "21,63")
    assert code == 0
    rows = read_rows(files[0])
    assert files[0].name.startswith("exhibit5_")
    assert rows[0] == list(QuintileReport.CSV_HEADER)
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
        header, *rows = csv.reader(path.open())
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
            path = _maybe_svg(cfg, stem, stem, dates, named, 'y "&" <z>')
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
