"""Write the reference outputs the benchmark compares against.

    python3 bench/make_refs.py [SEED ...]      # default: checks.REF_SEEDS

Runs one untraced pass of each workload per seed (run.Runner.run_pass, the
benchmark's own pass; the check problems it reports against the old
references are ignored) and stores every output table in bench/refs/,
numbers rounded to
checks.REF_SIG_DIGITS significant digits. Regenerate only for a change that
is meant to move the outputs, and say so where the change is described.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run


def make(cls: type[run.Workload], seed: int) -> Path:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"refs-{cls.name}-", dir=run.WORK))
    try:
        wl = cls(seed, work)
        res = run.Runner(wl).run_pass()
        crashed = {label: code for label, (_wall, _rss, code) in res.ops.items() if code != 0}
        if crashed:
            sys.exit(f"{cls.name} seed {seed}: exit codes {crashed}")
        tables: dict = {}
        lead: dict[str, int] = {}
        for op in wl.ops:
            got = wl.tables(op)[0]
            tables.update(got)
            rcal = wl.return_calendar(op)
            lead.update({stem: rcal.index(rows[1][0]) for stem, rows in got.items()
                         if rcal and rows[0][0] == "date"})
        return checks.save_refs(cls.name, seed, tables, lead)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    seeds = [int(s) for s in sys.argv[1:]] or list(checks.REF_SEEDS)
    for cls in run.WORKLOADS.values():
        for seed in seeds:
            print(make(cls, seed))
