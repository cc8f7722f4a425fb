"""Check that two source trees give the same command-line outputs.

    python tools/same_outputs.py PARENT_TREE CHANGE_TREE

Runs the 13 command forms of `dynte` in each tree (PYTHONPATH=<tree>/src)
on three configs: the empty config, the benchmark's seed-0 CSV inputs with
charts on, and a 6552-day synthetic panel with charts on. The CSV inputs
come from bench/inputs.py. For each run it compares the names and bytes of
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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import inputs  # noqa: E402  (bench/inputs.py)

FORMS = (["synth"], *(["exhibit", str(n)] for n in range(1, 8)),
         ["converge"], ["omega"], ["regret"], ["sweep"], ["props"])


def configs(work: Path) -> dict[str, dict]:
    csv = inputs.csv_config(inputs.write_csv_inputs(0, work))
    return {"empty": {}, "csv seed 0": {**csv, "svg": True},
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


def main(parent: Path, change: Path) -> int:
    differ, runs = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
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
    sys.exit(main(Path(sys.argv[1]), Path(sys.argv[2])))
