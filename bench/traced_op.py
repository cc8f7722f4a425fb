"""One operation of the traced pass, in its own fresh process.

    python3 bench/traced_op.py SPANS_JSON cli ARG...
    python3 bench/traced_op.py SPANS_JSON regime SEED OUT_JSON

Times the import of dynte, wraps the layers' public functions (spans.py),
then runs the operation in-process: `dynte.cli.main(ARG...)` or the regime
driver. The spans go to SPANS_JSON when the operation ends; the exit code is
the operation's.
"""

import time

T_START = time.monotonic()

import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, kind, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    t_boot = time.monotonic()
    tracer.add("trace.boot", T_START, t_boot)
    import dynte  # noqa: F401
    import dynte.cli
    t_import = time.monotonic()
    tracer.add("import", t_boot, t_import)
    tracer.install()
    tracer.add("trace.install", t_import, time.monotonic())
    code = 1
    try:
        if kind == "cli":
            code = dynte.cli.main(args)
        elif kind == "regime":
            import regime_driver
            tracer.wrap("driver.run", regime_driver.run)(int(args[0]), args[1])
            code = 0
        else:
            raise SystemExit(f"unknown operation kind {kind!r}")
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
