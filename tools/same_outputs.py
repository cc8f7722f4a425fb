"""Check that two source trees give the same command-line outputs.

    python tools/same_outputs.py PARENT_TREE CHANGE_TREE
    python tools/same_outputs.py HEAD .

Either argument may name a git revision of this repository in place of a
source tree: its `src/` is extracted with `git archive` into a temporary
directory, which leaves no worktree or other repository state behind.
Runs every command form of `dynte` in each tree (PYTHONPATH=<tree>/src),
as this checkout's command table `dynte.cli.COMMANDS` lists them, on four
configs: the empty config, the benchmark's seed-0 CSV inputs with charts
on, those inputs with a constant annual risk-free rate file as `data.rf`,
and a 6552-day synthetic panel with charts on. The CSV inputs come from
bench/inputs.py. For each run it compares the names and bytes of
the files written, stdout, stderr and the exit code, prints each
(config, form) that differs and exits 1; otherwise it prints
`identical: N runs`. Each converge form peaks near 40 MB of resident
memory, and the runs take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
import inputs  # noqa: E402  (bench/inputs.py)
from dynte.cli import COMMANDS  # noqa: E402

FORMS = [form for name, (_, cmd) in COMMANDS.items()
         for form in ([[name, str(n)] for n in cmd] if isinstance(cmd, dict) else [[name]])]


def configs(work: Path) -> dict[str, dict]:
    csv = inputs.csv_config(inputs.write_csv_inputs(0, work))
    rf = work / "rf.csv"
    rf.write_text("date,RATE\n" + "".join(
        f"{d},0.0437\n" for d in inputs.weekdays(inputs.START, inputs.N_DAYS)))
    rf_data = {**csv["data"], "rf": {"path": str(rf), "column": "RATE"}}
    return {"empty": {}, "csv seed 0": {**csv, "svg": True},
            "csv seed 0 with rf": {**csv, "data": rf_data, "svg": True},
            "synth 6552": {"synth": {"horizon": inputs.N_DAYS}, "svg": True}}


def outputs(tree: Path, work: Path, cfg: Path, form: list[str]):
    """Exit code, stdout, stderr and {name: bytes} of one run into work/out."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    p = subprocess.run([sys.executable, "-m", "dynte.cli", *form, "--config", str(cfg),
                        "--out", "out"], cwd=work, env=env, capture_output=True)
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}
    return {"exit code": p.returncode, "stdout": p.stdout, "stderr": p.stderr,
            "names": sorted(files), "bytes": files}


def source_tree(arg: str, tmp: Path) -> Path:
    """`arg` as a source tree: a directory as it is, else a git revision of
    this repository, whose `src/` is extracted under `tmp`."""
    if Path(arg).is_dir():
        return Path(arg)
    tree = Path(tempfile.mkdtemp(dir=tmp))
    archive = subprocess.run(["git", "archive", "--format=tar", arg, "src"], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        sys.exit(f"{arg}: neither a directory nor a revision: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    return tree


def main(parent_arg: str, change_arg: str) -> int:
    differ, runs = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = (source_tree(arg, Path(tmp)) for arg in (parent_arg, change_arg))
        work = Path(tmp) / "work"
        work.mkdir()
        for label, cfg in configs(work).items():
            path = work / "cfg.json"
            path.write_text(json.dumps(cfg))
            for form in FORMS:
                a, b = (outputs(tree, work, path, form) for tree in (parent, change))
                runs += 1
                bad = [k for k in a if a[k] != b[k]]
                if bad:
                    differ.append(f"{label}: {' '.join(form)}: {', '.join(bad)} differ")
                    print(differ[-1], flush=True)
    if differ:
        return 1
    print(f"identical: {runs} runs")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
