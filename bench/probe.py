"""Empty-config probe: every subcommand form with a `{}` config.

    python3 bench/probe.py WORKDIR

Runs the 12 forms in-process through dynte.cli.main, each into WORKDIR/out,
and prints one JSON object mapping each form to its exit code. The README
promises that every subcommand exits 0 on the synthetic fallback; the forms
that do not are the ones reported. `exhibit 7` is left out: it is the same
command as `converge`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

FORMS = (
    ("synth",), ("exhibit", "1"), ("exhibit", "2"), ("exhibit", "3"),
    ("exhibit", "4"), ("exhibit", "5"), ("exhibit", "6"), ("converge",),
    ("omega",), ("regret",), ("sweep",), ("props",),
)


def main(workdir: Path) -> dict[str, int]:
    from dynte.cli import main as cli_main

    cfg = workdir / "empty.json"
    cfg.write_text("{}\n")
    codes = {}
    for form in FORMS:
        argv = [*form, "--config", str(cfg), "--out", str(workdir / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                codes[" ".join(form)] = cli_main(argv)
            except SystemExit as e:
                codes[" ".join(form)] = e.code if isinstance(e.code, int) else 2
    return codes


if __name__ == "__main__":
    print(json.dumps(main(Path(sys.argv[1]))))
