"""Benchmark of the dynte batch engine, end to end and layer by layer.

    python3 bench/run.py --workload exhibits_csv --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --suite      # time the tier-1 tests once, record it

Workloads (the reasons are in BENCHMARK.json):

  exhibits_csv    exhibit 1..6, sweep and props on generated CSV files
                  (inputs.py): 8 processes a pass
  synth_kernels   converge on a 6552-day synthetic panel (11 caps x a
                  10 000-draw bootstrap), then the regime demo's panel at
                  6552 days -> weekly returns -> EM with 20 restarts
                  (regime_driver.py): 2 processes a pass

One client in a closed loop: every operation is a fresh Python process,
started when the previous one has ended, so import cost counts. A pass is
the workload's operations in order. A run makes MIN_PASSES passes, then
more while the next is expected to end within --seconds. Every output is
checked (checks.py) and must be byte-identical across the repetitions of
one run.

setup_s is the time from spawning a fresh interpreter to the end of
`import dynte, dynte.cli`. Every operation's process marks that moment on
its stderr, so each operation is one sample; a workload with few, long
operations also spawns `probes_per_op` bare import probes before each one.
The samples are spread over the whole run, so its median is not that of
one moment of a machine whose speed drifts.

--trace 0 reports the end-to-end metrics: the median over passes of the
pass wall time (sum over its processes) and of its largest child ru_maxrss,
read per child with os.wait4, and the median setup time. An operation fails
if it exits non-zero or its output fails a check; `failed`/`attempted`
is the error rate.

--trace 1 runs the same passes, then one traced pass (traced_op.py: same
operations, each in a fresh process, run in-process through
dynte.cli.main or the driver with every layer's public functions wrapped),
one `python -X importtime -c "import dynte.cli"` and the empty-config probe
(probe.py), and reports the per-layer metrics. A span's self time is its
duration minus its children's and their wrappers' cost; the wrappers' cost
is the `trace` layer, so the layers' self times add up to the traced pass.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A fuller report, and the spans of a traced
pass, go to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import spans as sp

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / "out"

MIN_PASSES = 2
OP_TIMEOUT_S = 120.0
SUITE_TIMEOUT_S = 900.0
SETUP_TAG = "bench-setup-done"
SETUP_PROBE = ("import sys, time, dynte, dynte.cli; "
               f"print({SETUP_TAG!r}, repr(time.monotonic()), file=sys.stderr, flush=True)")
CLI_MAIN = SETUP_PROBE + "; sys.exit(dynte.cli.main())"
EM_MAIN = (SETUP_PROBE + f"; sys.path.insert(0, {str(BENCH)!r}); import regime_driver; "
           "regime_driver.run(int(sys.argv[1]), sys.argv[2])")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# --------------------------------------------------------------- processes --

@dataclass
class Proc:
    start: float          # time.monotonic() just before spawning
    end: float            # just after os.wait4 returned
    rss_mb: float         # the child's own ru_maxrss
    code: int
    stdout: str
    stderr: str

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def setup(self) -> float | None:
        """Seconds from the spawn to the end of the child's dynte import,
        if it ran SETUP_PROBE."""
        m = re.search(rf"^{SETUP_TAG} (\S+)$", self.stderr, re.M)
        return float(m.group(1)) - self.start if m else None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], cwd: Path, timeout: float = OP_TIMEOUT_S) -> Proc:
    """Run `python argv...` to completion; the child's rusage comes from
    os.wait4, so it is this child's alone."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.monotonic()
        p = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=child_env(),
                             stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(timeout, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
        p.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(start, end, ru.ru_maxrss / 1024.0, p.returncode, out.read(), err.read())


def measure_setup(cwd: Path) -> float:
    p = spawn(["-c", SETUP_PROBE], cwd)
    if p.code != 0 or p.setup is None:
        raise RuntimeError(f"cannot import dynte: {p.stderr.strip()[-500:]}")
    return p.setup


# --------------------------------------------------------------- workloads --

@dataclass
class Op:
    label: str
    argv: list[str]              # after the interpreter, for the timed pass
    traced: list[str]            # traced_op.py arguments after SPANS_JSON
    stems: tuple[str, ...]       # its output files are named {stem}_*.csv or {stem}.json
    roles: tuple[str, ...] = ()  # input files it reads, for exhibits_csv


class Workload:
    name = ""
    ops: list[Op]
    probes_per_op = 0          # bare setup probes spawned before each operation

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.refs = checks.load_refs(self.name, seed)
        self.layout = (self.refs if seed == checks.REF_SEEDS[0]
                       else checks.load_refs(self.name, checks.REF_SEEDS[0]))

    def tables(self, op: Op) -> tuple[dict, list[str]]:
        tables, problems = {}, []
        for stem in op.stems:
            found = sorted((self.work / "out").glob(f"{stem}_*.csv"))
            if len(found) != 1:
                problems.append(f"{op.label}: expected one {stem}_*.csv, found {len(found)}")
                continue
            tables[stem] = checks.read_table(found[0])
        return tables, problems

    def check(self, op: Op) -> list[str]:
        """Problems with the outputs `op` just wrote."""
        tables, problems = self.tables(op)
        for stem, got in tables.items():
            if self.refs is not None:
                problems += checks.compare_table(stem, got, self.refs["tables"][stem])
            if self.layout is not None:
                problems += checks.layout_problems(
                    stem, got, self.layout["tables"][stem],
                    self.layout["lead"].get(stem), self.return_calendar(op))
        return problems + self.invariants(op, tables)

    def return_calendar(self, op: Op) -> list[str] | None:
        return None

    def invariants(self, op: Op, tables: dict) -> list[str]:
        return []

    def trace_problems(self, tr: sp.Trace) -> list[str]:
        return []


def cli_op(label: str, args: list[str], stems: tuple[str, ...], roles=()) -> Op:
    args = [*args, "--config", "cfg.json"]
    return Op(label, ["-c", CLI_MAIN, *args], ["cli", *args], stems, roles)


class ExhibitsCsv(Workload):
    name = "exhibits_csv"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.inputs = inputs.write_csv_inputs(seed, work)
        inputs.write_config(inputs.csv_config(self.inputs), work / "cfg.json")
        self.ops = [cli_op(f"exhibit {n}", ["exhibit", str(n)],
                           ("exhibit6a", "exhibit6b") if n == 6 else (f"exhibit{n}",),
                           self.READS.get(n, inputs.ROLES))
                    for n in range(1, 7)]
        self.ops += [cli_op("sweep", ["sweep"], ("sweep",), inputs.ROLES),
                     cli_op("props", ["props"], ("props",))]

    # the files load_market reads: the roles a command needs, plus tlt and
    # sectors whenever the config names them
    READS = {1: ("sectors", "vix", "tlt"), 5: ("eq", "vix", "tlt", "sectors")}

    def return_calendar(self, op):
        days = self.inputs.days
        return [days[i].isoformat() for i in self.inputs.calendar(op.roles)[1:]]

    def invariants(self, op, tables):
        return checks.exhibits_invariants(tables, self.inputs, op.roles)

    def trace_problems(self, tr):
        """Each ingest must drop exactly the rows the generator left incomplete."""
        out = []
        for s in tr.named("timeseries.ingest_csv"):
            a = s[sp.ATTRS]
            planted = self.inputs.incomplete[Path(a["path"]).stem]
            if a["dropped"] != planted:
                out.append(f"ingest of {a['path']} dropped {a['dropped']} rows, "
                           f"{planted} are incomplete")
        return out


class SynthKernels(Workload):
    name = "synth_kernels"
    EM_JSON = "out/regime_em.json"
    probes_per_op = 1

    def __init__(self, seed, work):
        super().__init__(seed, work)
        inputs.write_config(inputs.synth_config(seed), work / "cfg.json")
        em = [str(seed), self.EM_JSON]
        self.ops = [cli_op("converge", ["converge"], ("exhibit7",)),
                    Op("regime_em", ["-c", EM_MAIN, *em],
                       ["regime", *em], ("regime_em",))]

    def tables(self, op):
        if op.label != "regime_em":
            return super().tables(op)
        path = self.work / self.EM_JSON
        if not path.is_file():
            return {}, [f"{op.label}: wrote no {self.EM_JSON}"]
        return {"regime_em": json.loads(path.read_text())}, []

    def check(self, op):
        if op.label != "regime_em":
            return super().check(op)
        tables, problems = self.tables(op)
        ref = self.refs["tables"]["regime_em"] if self.refs else None
        return problems or checks.regime_problems(tables["regime_em"], ref)

    def invariants(self, op, tables):
        return checks.converge_invariants(tables["exhibit7"]) if "exhibit7" in tables else []


WORKLOADS = {w.name: w for w in (ExhibitsCsv, SynthKernels)}


# ------------------------------------------------------------------ passes --

@dataclass
class PassResult:
    wall: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    ops: dict[str, list] = field(default_factory=dict)      # label -> [wall, rss_mb, exit]
    setups: list[float] = field(default_factory=list)       # untraced passes only
    spans: list[list] = field(default_factory=list)         # traced passes only


class Runner:
    def __init__(self, wl: Workload):
        self.wl = wl
        self.digests: dict[str, dict[str, str]] = {}

    def _same_bytes(self, op: Op) -> list[str]:
        """Every repetition in a run must write the same bytes."""
        got = {p.name: checks.digest(p) for stem in op.stems
               for p in (self.wl.work / "out").glob(f"{stem}[_.]*")}
        want = self.digests.setdefault(op.label, got)
        return [] if got == want else [f"{op.label}: outputs differ from the first repetition"]

    def run_pass(self, traced: bool = False) -> PassResult:
        """The workload's operations, one fresh process after another. A
        traced pass runs them through traced_op.py and nests each child's
        spans under a `process` span measured here."""
        out = self.wl.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        res = PassResult()
        for i, op in enumerate(self.wl.ops):
            spans_path = self.wl.work / f"spans-{i}.json"
            argv = [str(BENCH / "traced_op.py"), str(spans_path), *op.traced] if traced else op.argv
            if not traced:
                res.setups += [measure_setup(self.wl.work) for _ in range(self.wl.probes_per_op)]
            proc = spawn(argv, self.wl.work)
            if not traced and proc.setup is not None:
                res.setups.append(proc.setup)
            res.wall += proc.wall
            res.rss_mb = max(res.rss_mb, proc.rss_mb)
            res.attempted += 1
            res.ops[op.label] = [proc.wall, proc.rss_mb, proc.code]
            if traced:
                self._merge_spans(res.spans, proc, op, spans_path)
            problems = (self.wl.check(op) + self._same_bytes(op) if proc.code == 0 else
                        [f"{op.label}: exit {proc.code}: {proc.stderr.strip()[-300:]}"])
            if problems:
                res.failed += 1
                res.problems += problems
        return res

    @staticmethod
    def _merge_spans(merged: list[list], proc: Proc, op: Op, spans_path: Path) -> None:
        pid = len(merged)
        merged.append([pid, None, "process", proc.start, proc.end, 0.0, {"op": op.label}])
        if spans_path.is_file():
            base = len(merged)
            for s in json.loads(spans_path.read_text()):
                s[sp.ID] += base
                s[sp.PARENT] = pid if s[sp.PARENT] is None else s[sp.PARENT] + base
                merged.append(s)


# ----------------------------------------------------------------- metrics --

def summary(xs: list[float], unit: str) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs), "unit": unit}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per package from `python -X importtime`: the sum
    over the package's entries that no other entry of it imported."""
    entries = []          # [name, cumulative_s, depth, parent]
    stack: list[list] = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        e = [m.group(4), int(m.group(2)) / 1e6, len(m.group(3)), None]
        while stack and stack[-1][2] > e[2]:
            stack.pop()[3] = e
        stack.append(e)
        entries.append(e)

    def total(pkg: str) -> float:
        def inside(name):
            return name == pkg or name.startswith(pkg + ".")
        s = 0.0
        for e in entries:
            if not inside(e[0]):
                continue
            p = e[3]
            while p is not None and not inside(p[0]):
                p = p[3]
            if p is None:
                s += e[1]
        return s

    out = {"numpy": total("numpy"), "scipy": total("scipy"), "dynte": total("dynte")}
    for e in entries:
        if e[0].startswith("dynte."):
            out[e[0]] = e[1]
    # importing dynte.cli first imports the package, which imports every
    # other module; dynte.cli is charged only for what it adds
    out["dynte.cli"] = out.get("dynte.cli", 0.0) - sum(
        e[1] for e in entries if e[0] == "dynte" and e[3] and e[3][0] == "dynte.cli")
    return out


def layer_metrics(tr, traced_wall: float, untraced_wall: float, csv_bytes: int,
                  imports: dict[str, float], probe_failures: int) -> dict[str, tuple[float, str]]:
    """`<layer>.<fn>.s` is the time inside the outermost calls of fn,
    children included; `<layer>.self_s` is the layer's self time."""
    m: dict[str, tuple[float, str]] = {}

    def tot(name):
        return tr.total(lambda n: n == name)

    m["import.numpy_s"] = (imports.get("numpy", 0.0), "s")
    m["import.scipy_s"] = (imports.get("scipy", 0.0), "s")
    m["import.dynte_s"] = (imports.get("dynte", 0.0), "s")
    for mod in sp.LAYERS:
        m[f"import.dynte.{mod}_s"] = (imports.get(f"dynte.{mod}", 0.0), "s")

    self_t = tr.layer_self()
    for lay in ("process", "import", "cli", *sp.LAYERS[:-1], "driver", "trace"):
        m[f"{lay}.self_s"] = (self_t.get(lay, 0.0), "s")
    m["cli.csv_bytes"] = (csv_bytes, "bytes")

    ing = tr.outermost(lambda n: n == "timeseries.ingest_csv")
    ing_s = tot("timeseries.ingest_csv")
    rows = sum(s[sp.ATTRS]["rows"] for s in ing)
    m["timeseries.ingest_csv.s"] = (ing_s, "s")
    m["timeseries.ingest_csv.calls"] = (len(ing), "count")
    m["timeseries.ingest_csv.rows"] = (rows, "rows")
    m["timeseries.ingest_csv.dropped_rows"] = (sum(s[sp.ATTRS]["dropped"] for s in ing), "rows")
    m["timeseries.ingest_csv.rows_per_s"] = (rows / ing_s if ing_s else 0.0, "1/s")
    m["timeseries.align.s"] = (tr.total(lambda n: n in sp.ALIGN), "s")
    m["timeseries.synth_regime_panel.s"] = (tot("timeseries.synth_regime_panel"), "s")

    for fn in ("rolling_avg_pairwise_corr", "rolling_corr", "rolling_vol", "moving_average"):
        m[f"rolling.{fn}.s"] = (tot(f"rolling.{fn}"), "s")

    for fn in ("classify", "percentile_thresholds", "weekly_returns", "fit_markov_switching"):
        m[f"regime.{fn}.s"] = (tot(f"regime.{fn}"), "s")
    # every EM trial run, collapsed ones that fit_markov_switching redraws
    # included, so these follow all of the EM's work, not the winning fit's
    trials = tr.named("regime._em_trial")
    m["regime.em.trials"] = (len(trials), "count")
    m["regime.em.n_iter"] = (sum(s[sp.ATTRS]["n_iter"] for s in trials), "count")
    m["regime.em.s_per_restart"] = (
        m["regime.fit_markov_switching.s"][0] / len(trials) if trials else 0.0, "s")

    m["simulate.simulate_overlay.s"] = (tot("simulate.simulate_overlay"), "s")
    m["simulate.simulate_overlay.calls"] = (len(tr.named("simulate.simulate_overlay")), "count")
    m["simulate.fixed_mix.s"] = (tot("simulate.fixed_mix"), "s")

    summ = tot("metrics.summarize")
    m["metrics.summarize.s"] = (summ, "s")
    m["metrics.s"] = (tr.total(lambda n: sp.layer_of(n) == "metrics") - summ, "s")

    boots = tr.named("inference.circular_block_bootstrap")
    boot_s = tot("inference.circular_block_bootstrap")
    draws = sum(s[sp.ATTRS]["draws"] for s in boots)
    m["inference.circular_block_bootstrap.s"] = (boot_s, "s")
    m["inference.circular_block_bootstrap.calls"] = (len(boots), "count")
    m["inference.circular_block_bootstrap.peak_mb"] = (
        max((s[sp.ATTRS]["peak_mb"] for s in boots), default=0.0), "MB")
    m["inference.bootstrap.draws"] = (draws, "count")
    m["inference.bootstrap.draws_per_s"] = (draws / boot_s if boot_s else 0.0, "1/s")
    m["inference.newey_west_mean_test.s"] = (tot("inference.newey_west_mean_test"), "s")
    m["inference.newey_west_mean_test.calls"] = (
        len(tr.named("inference.newey_west_mean_test")), "count")

    for fn in ("omega_table", "window_sweep", "find_trough", "regret_table"):
        m[f"events.{fn}.s"] = (tot(f"events.{fn}"), "s")
    m["model.proposition_suite.s"] = (tot("model.proposition_suite"), "s")

    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["probe.empty_config_failures"] = (probe_failures, "count")
    return m


# ------------------------------------------------------------- environment --

def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "matplotlib": importlib.util.find_spec("matplotlib") is not None,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def run_suite() -> dict:
    """One run of the tier-1 tests: wall time, summary and 5 slowest tests."""
    start = time.monotonic()
    p = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=5", "-p", "no:cacheprovider"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=SUITE_TIMEOUT_S)
    wall = time.monotonic() - start
    lines = p.stdout.splitlines()
    slowest = [ln.strip() for ln in lines if re.match(r"\s*\d+\.\d+s (call|setup|teardown) ", ln)]
    summary = next((ln.strip("= ") for ln in reversed(lines) if " in " in ln), "")
    return {"wall_s": wall, "summary": summary, "slowest": slowest[:5], "exit": p.returncode}


# --------------------------------------------------------------------- main --

def preflight() -> None:
    missing = [p for p in (SRC / "dynte" / "cli.py", BENCH / "refs") if not p.exists()]
    if missing:
        sys.exit(f"bench: {', '.join(map(str, missing))} not found; "
                 "run from a full checkout of the repository")


def run(args) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        runner = Runner(wl)
        measure_setup(work)                      # warm-up: byte-compile, page cache
        passes = []
        begin = time.monotonic()
        while True:
            passes.append(runner.run_pass())
            elapsed = time.monotonic() - begin
            if (len(passes) >= MIN_PASSES
                    and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
                break
        setups = [t for p in passes for t in p.setups]
        report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": environment(),
                  "passes": [{"wall_s": p.wall, "peak_rss_mb": p.rss_mb, "ops": p.ops}
                             for p in passes],
                  "setup_s": setups,
                  "end_to_end": {"wall_s": summary([p.wall for p in passes], "s"),
                                 "setup_s": summary(setups, "s"),
                                 "peak_rss_mb": summary([p.rss_mb for p in passes], "MB")}}
        all_passes = list(passes)
        if args.trace:
            res = runner.run_pass(traced=True)
            all_passes.append(res)
            report.update(traced(wl, res, report["end_to_end"]["wall_s"]["median"]))
        report["attempted"] = sum(p.attempted for p in all_passes)
        report["failed"] = sum(p.failed for p in all_passes)
        report["problems"] = sorted({x for p in all_passes for x in p.problems})
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced(wl: Workload, res: PassResult, untraced_wall: float) -> dict:
    """Per-layer figures from a traced pass, plus the import attribution and
    the empty-config probe, each from one more fresh process."""
    pass_id = uuid.uuid4().hex
    csv_bytes = sum(p.stat().st_size for p in (wl.work / "out").glob("*.csv"))
    tr = sp.Trace(res.spans)

    it = spawn(["-X", "importtime", "-c", "import dynte.cli"], wl.work)
    imports = parse_importtime(it.stderr)

    probe_dir = wl.work / "probe"
    probe_dir.mkdir()
    pr = spawn([str(BENCH / "probe.py"), str(probe_dir)], wl.work)
    codes = json.loads(pr.stdout.strip().splitlines()[-1]) if pr.code == 0 else {}
    failures = {form: c for form, c in codes.items() if c != 0}
    if pr.code != 0:
        res.problems.append(f"empty-config probe crashed: {pr.stderr.strip()[-300:]}")

    metrics = layer_metrics(tr, res.wall, untraced_wall, csv_bytes, imports, len(failures))
    res.problems += wl.trace_problems(tr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{wl.seed}-spans.json").write_text(
        json.dumps({"pass_id": pass_id, "fields": ["id", "parent", "name", "start", "end",
                                                   "wrapper_cost", "attrs"],
                    "spans": res.spans}))
    return {"pass_id": pass_id, "per_layer": {k: {"value": v, "unit": u}
                                              for k, (v, u) in metrics.items()},
            "probe": {"exit_codes": codes, "failures": failures},
            "traced_wall_s": res.wall}


def print_report(r: dict) -> None:
    env = r["env"]
    print(f"dynte benchmark  workload={r['workload']} seed={r['seed']} "
          f"seconds={r['seconds']} trace={r['trace']}")
    print(f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"matplotlib {'present' if env['matplotlib'] else 'absent'}, blas {env['blas']}, "
          f"nproc {env['nproc']}, thread vars {env['thread_vars'] or 'unset'}")
    print(f"  {'metric':<14}{'unit':<10}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}")
    for k, v in r["end_to_end"].items():
        print(f"  {k:<14}{v['unit']:<10}{v['median']:>12.4f}{v['q1']:>12.4f}{v['q3']:>12.4f}{v['n']:>5}")
    print(f"  {'error_rate':<14}{'fraction':<10}{r['failed'] / r['attempted']:>12.4f}"
          f"   ({r['failed']} of {r['attempted']} operations)")
    for p in r["problems"][:20]:
        print(f"  problem: {p}")
    if "per_layer" in r:
        pl = r["per_layer"]
        wall = r["traced_wall_s"]
        print(f"  traced pass {wall:.3f} s, untraced median "
              f"{r['end_to_end']['wall_s']['median']:.3f} s; layer self times:")
        selfs = {k: v["value"] for k, v in pl.items() if k.endswith(".self_s")}
        for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"    {k:<22}{v:>10.3f} s  {100 * v / wall:5.1f} %")
        layers = sum(v for k, v in selfs.items() if k != "trace.self_s")
        closure = layers + pl["trace.overhead_s"]["value"] - wall
        print(f"  layer self times (without the tracer's) + trace.overhead_s - traced wall "
              f"= {closure:+.3f} s ({100 * closure / wall:+.1f} % of the traced pass)")
        print(f"  empty-config probe: {len(r['probe']['failures'])} failing forms "
              f"{r['probe']['failures']}")
        for k, v in pl.items():
            if not k.endswith(".self_s"):
                print(f"    {k:<44}{v['value']:>16.6g} {v['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true",
                    help="time one run of the tier-1 tests into bench/out/suite.json")
    args = ap.parse_args(argv)
    preflight()
    if args.suite:
        OUT.mkdir(exist_ok=True)
        rec = dict(run_suite(), env=environment())
        (OUT / "suite.json").write_text(json.dumps(rec, indent=1) + "\n")
        print(json.dumps(rec, indent=1))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    r = run(args)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json").write_text(
        json.dumps(r, indent=1, default=str) + "\n")
    print_report(r)
    if args.trace:
        metrics = r["per_layer"]
    else:
        metrics = {k: {"value": v["median"], "unit": v["unit"]}
                   for k, v in r["end_to_end"].items()}
    print(json.dumps({"correct": r["failed"] == 0 and not r["problems"],
                      "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
