"""Text files are UTF-8 whatever the locale.

Every command form runs in a fresh interpreter: once under the C locale
with UTF-8 mode and locale coercion off, where Python's default text
encoding is ASCII, against a run under C.UTF-8; and once under
`-X warn_default_encoding`, which raises an EncodingWarning wherever a
text file is opened without an encoding.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from dynte.cli import COMMANDS

SRC = Path(__file__).resolve().parents[1] / "src"

# every command form, read off the command table, as its argument list
FORMS = [form.split() for form in COMMANDS]
# the exit code of each form on a config with no data files: the synthetic
# panel has no sectors, so exhibit 1 is a config error
NO_DATA_CODES = [2 if form == ["exhibit", "1"] else 0 for form in FORMS]

# runs each form through `main`, then writes the exit codes and, for each
# EncodingWarning raised under src/dynte, the innermost package frame
DRIVER = """
import json, sys, traceback, warnings
from pathlib import Path

package = str(Path(sys.argv[1]).resolve())
seen = []


def show(message, category, filename, lineno, file=None, line=None):
    frames = [f for f in traceback.extract_stack() if f.filename.startswith(package)]
    if category is EncodingWarning and frames:
        seen.append(f"{Path(frames[-1].filename).name}:{frames[-1].lineno}")


warnings.showwarning = show
warnings.simplefilter("always", EncodingWarning)
from dynte.cli import main

cfg, out, forms = sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
codes = [main([*form, "--config", cfg, "--out", out]) for form in forms]
Path(sys.argv[5]).write_text(json.dumps({"codes": codes, "seen": seen}), encoding="utf-8")
"""


def drive(tmp_path, tag, cfg, env, flags=()):
    """Run every form on `cfg` under `env`; returns the exit codes, the
    package's EncodingWarnings and the output files' names and bytes."""
    out, report = tmp_path / f"out_{tag}", tmp_path / f"report_{tag}.json"
    subprocess.run(
        [sys.executable, *flags, "-c", DRIVER, str(SRC / "dynte"), str(cfg), str(out),
         json.dumps(FORMS), str(report)],
        env={**os.environ, "PYTHONPATH": str(SRC), **env}, capture_output=True, check=True)
    result = json.loads(report.read_text(encoding="utf-8"))
    files = {f.name: f.read_bytes() for f in sorted(out.glob("*"))}
    return result["codes"], sorted(set(result["seen"])), files


def csv_config(tmp_path):
    """A config that reads every data role from CSVs of a short synthetic panel."""
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"synth": {"horizon": 900}}), encoding="utf-8")
    codes, _, files = drive(tmp_path, "panel", cfg, {}, ())
    assert codes[FORMS.index(["synth"])] == 0
    panel = tmp_path / "panel.csv"
    panel.write_bytes(next(b for name, b in files.items() if name.startswith("synth_panel")))
    data = {role: {"path": str(panel), "column": col}
            for role, col in (("eq", "BENCH_EQ"), ("bd", "BENCH_BD"), ("vix", "VIX"),
                              ("tlt", "BENCH_BD"))}
    data["sectors"] = {"path": str(panel), "columns": ["BENCH_EQ", "BENCH_BD", "SPREAD"]}
    return {"data": data, "svg": True}


def test_outputs_do_not_depend_on_the_locale(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(json.dumps({"crises": {"gfc_ü": ["2007-10-01", "2009-06-30"]},
                                "svg": True}, ensure_ascii=False).encode("utf-8"))
    runs = [drive(tmp_path, tag, cfg, env) for tag, env in (
        ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}),
        ("utf8", {"LC_ALL": "C.UTF-8"}))]
    assert runs[0] == runs[1]
    codes, _, files = runs[0]
    assert codes == NO_DATA_CODES
    regret = next(b for name, b in files.items() if name.startswith("exhibit6b_"))
    assert "gfc_ü".encode("utf-8") in regret


def test_no_text_file_is_opened_without_an_encoding(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"svg": True}), encoding="utf-8")
    with_data = tmp_path / "data.json"
    with_data.write_text(json.dumps(csv_config(tmp_path)), encoding="utf-8")
    for tag, cfg in (("empty", empty), ("data", with_data)):
        codes, seen, _ = drive(tmp_path, tag, cfg, {}, ("-X", "warn_default_encoding"))
        assert seen == [], (tag, seen)
        assert codes == (NO_DATA_CODES if tag == "empty" else [0] * len(FORMS)), (tag, codes)
