"""Output checks for the benchmark.

Every output CSV is checked after the pass that wrote it:

* against a stored reference table, cell by cell, when one exists for the
  seed (`refs/<workload>-seed<n>.json.gz`). Numbers inside a cell must agree
  within REL_TOL (plus ABS_TOL near zero) and the text around them must
  match exactly, so last-digit moves pass and wrong numbers fail;
* for every seed, against the layout of the default seed's reference
  (header, row labels, which date suffix a time-series table covers) and
  against invariants that hold whatever the seed;
* byte for byte against the first repetition in the same invocation.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "refs"
REF_SEEDS = (0, 1)               # the default seed and one held-out seed
REL_TOL = 1e-9                   # every CSV cell
ABS_TOL = 1e-12
EM_PARAM_REL_TOL = 1e-5          # EM means, variances and transition probabilities
EM_LOGLIK_REL_TOL = 1e-9
REF_SIG_DIGITS = 12              # references are stored rounded to this

_NUM = re.compile(r"(-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def read_table(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh)]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _round_cell(cell: str) -> str:
    return _NUM.sub(lambda m: "%.*g" % (REF_SIG_DIGITS, float(m.group())), cell)


def _close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b)) + ABS_TOL


def cell_problem(got: str, want: str, rel: float = REL_TOL) -> str | None:
    g, w = _NUM.split(got), _NUM.split(want)
    if len(g) != len(w):
        return f"{got!r} != {want!r}"
    for i, (x, y) in enumerate(zip(g, w)):
        if i % 2 == 0:
            if x != y:
                return f"{got!r} != {want!r}"
        elif not _close(float(x), float(y), rel):
            return f"{got!r} != {want!r} (rel tol {rel:g})"
    return None


def compare_table(name: str, got: list[list[str]], want: list[list[str]],
                  rel: float = REL_TOL, limit: int = 5) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, reference has {len(want)}"]
    out = []
    for r, (gr, wr) in enumerate(zip(got, want)):
        if len(gr) != len(wr):
            out.append(f"{name} row {r}: {len(gr)} cells, reference has {len(wr)}")
            continue
        for c, (g, w) in enumerate(zip(gr, wr)):
            p = cell_problem(g, w, rel)
            if p:
                out.append(f"{name} row {r} col {want[0][c]}: {p}")
        if len(out) >= limit:
            break
    return out[:limit]


# ----------------------------------------------------------- references --

def ref_path(workload: str, seed: int) -> Path:
    return REF_DIR / f"{workload}-seed{seed}.json.gz"


def load_refs(workload: str, seed: int) -> dict | None:
    p = ref_path(workload, seed)
    if not p.is_file():
        return None
    with gzip.open(p, "rt") as fh:
        return json.load(fh)


def save_refs(workload: str, seed: int, tables: dict, layout: dict[str, int]) -> Path:
    """`tables` maps a stem to its CSV rows, or to a JSON object stored as
    is. `layout` maps each date-indexed table to how many leading dates of
    the return calendar it omits (its rolling-window warm-up)."""
    doc = {"tables": {k: [[_round_cell(c) for c in row] for row in v]
                      if isinstance(v, list) else v for k, v in tables.items()},
           "lead": layout}
    REF_DIR.mkdir(exist_ok=True)
    p = ref_path(workload, seed)
    blob = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
    p.write_bytes(gzip.compress(blob, 9, mtime=0))
    return p


# ------------------------------------------------------------ structure --

def layout_problems(name: str, got: list[list[str]], ref: list[list[str]],
                    lead: int | None, rcal: list[str] | None) -> list[str]:
    """Checks that hold for every seed: the header, the row labels of
    fixed-size tables, the date suffix of time-series tables, and that a
    cell is a number wherever the reference holds a finite number."""
    if not got or got[0] != ref[0]:
        return [f"{name}: header {got[:1]} != {ref[:1]}"]
    body, rbody = got[1:], ref[1:]
    out = []
    if lead is not None and rcal is not None:
        want = rcal[lead:]
        dates = [r[0] for r in body]
        if dates != want:
            out.append(f"{name}: dates do not cover the return calendar from index {lead}")
    elif len(body) != len(rbody) or any(cell_problem(r[0], w[0]) for r, w in zip(body, rbody)):
        out.append(f"{name}: row labels differ from the reference layout")
    for r, row in enumerate(body):
        if len(row) != len(ref[0]):
            out.append(f"{name} row {r}: {len(row)} cells")
            break
    cols = _numeric_columns(rbody)
    for c in cols:
        for r, row in enumerate(body):
            try:
                v = float(row[c])
            except (ValueError, IndexError):
                out.append(f"{name} row {r} col {ref[0][c]}: {row[c:c + 1]} is not a number")
                break
            if not math.isfinite(v):
                out.append(f"{name} row {r} col {ref[0][c]}: {v} is not finite")
                break
    return out


def _numeric_columns(rows: list[list[str]]) -> list[int]:
    cols = []
    for c in range(len(rows[0]) if rows else 0):
        try:
            if all(math.isfinite(float(r[c])) for r in rows):
                cols.append(c)
        except ValueError:
            pass
    return cols


def column(rows: list[list[str]], name: str) -> np.ndarray:
    c = rows[0].index(name)
    return np.array([float(r[c]) if r[c] else np.nan for r in rows[1:]])


# ----------------------------------------------------------- invariants --

def exhibits_invariants(tables: dict[str, list[list[str]]], inputs, roles) -> list[str]:
    """Seed-independent facts about the exhibit tables of one operation,
    the first two recomputed with numpy from the generated inputs on the
    calendar the operation's input files share (`roles`)."""
    out = []
    cal = inputs.calendar(roles)
    pos = {inputs.days[i].isoformat(): k for k, i in enumerate(cal)}

    def returns(levels):
        lv = levels[cal]
        return lv[1:] / lv[:-1] - 1.0

    t1 = tables.get("exhibit1")
    if t1:
        last = pos[t1[-1][0]]
        w = returns(inputs.sectors)[last - 63:last]
        cm = np.corrcoef(w.T)
        want = cm[np.triu_indices_from(cm, 1)].mean()
        got = float(t1[-1][1])
        if not _close(got, want, 1e-9):
            out.append(f"exhibit1: last avg pairwise corr {got} != numpy {want}")
        vix = column(t1, "vix")
        if not np.array_equal(vix, inputs.vix[cal[[pos[r[0]] for r in t1[1:]]]]):
            out.append("exhibit1: vix column differs from the input file")
        if not np.all(np.abs(column(t1, "avg_pairwise_corr")) <= 1.0):
            out.append("exhibit1: correlation outside [-1, 1]")
    t2 = tables.get("exhibit2")
    if t2:
        last = pos[t2[-1][0]]
        want = np.corrcoef(returns(inputs.eq)[last - 126:last],
                           returns(inputs.bd)[last - 126:last])[0, 1]
        got = float(t2[-1][1])
        if not _close(got, want, 1e-9):
            out.append(f"exhibit2: last eq/bd corr {got} != numpy {want}")
    t4 = tables.get("exhibit4")
    if t4 and not (np.all(column(t4, "te_static") >= 0) and np.all(column(t4, "te_dynamic") >= 0)):
        out.append("exhibit4: negative tracking error")
    t6 = tables.get("exhibit6a")
    if t6:
        dd = column(t6, "drawdown")
        if not np.all((dd >= 0) & (dd < 1)):
            out.append("exhibit6a: drawdown outside [0, 1)")
    tp = tables.get("props")
    if tp and any(r[1] != "pass" for r in tp[1:]):
        out.append("props: a closed-form proposition did not pass")
    return out


def converge_invariants(t: list[list[str]]) -> list[str]:
    out = []
    lo, hi, width = column(t, "sharpe_ci_lo"), column(t, "sharpe_ci_hi"), column(t, "ci_width")
    if not np.all(lo < hi):
        out.append("exhibit7: sharpe CI with lo >= hi")
    if not np.allclose(hi - lo, width, rtol=1e-12, atol=1e-15):
        out.append("exhibit7: ci_width != ci_hi - ci_lo")
    if not np.all(column(t, "te_level") >= 0):
        out.append("exhibit7: negative tracking error")
    return out


def regime_problems(fit: dict, ref: dict | None) -> list[str]:
    """`fit` is the driver's JSON: mu, var, transition, loglik, trace,
    converged, n_iter."""
    out = []
    trace = np.asarray(fit["trace"])
    if not fit["converged"]:
        out.append("regime_em: EM did not converge")
    floor = -1e-9 * max(1.0, abs(fit["loglik"]))
    if len(trace) > 1 and np.min(np.diff(trace)) < floor:
        out.append(f"regime_em: log-likelihood fell by {-np.min(np.diff(trace)):.3g}")
    if not fit["var"][1] > fit["var"][0]:
        out.append("regime_em: var[1] <= var[0]")
    if not (trace.size and fit["loglik"] == trace[-1] and fit["n_iter"] == trace.size):
        out.append("regime_em: loglik / n_iter disagree with the trace")
    if ref is not None:
        if not _close(fit["loglik"], ref["loglik"], EM_LOGLIK_REL_TOL):
            out.append(f"regime_em: loglik {fit['loglik']} != reference {ref['loglik']}")
        got = np.concatenate([fit["mu"], fit["var"], np.ravel(fit["transition"])])
        want = np.concatenate([ref["mu"], ref["var"], np.ravel(ref["transition"])])
        if not np.allclose(got, want, rtol=EM_PARAM_REL_TOL, atol=0):
            out.append("regime_em: fitted parameters differ from the reference")
        if fit["weeks"] != ref["weeks"]:
            out.append(f"regime_em: {fit['weeks']} weeks, reference has {ref['weeks']}")
        if fit["converged"] != ref["converged"]:
            out.append("regime_em: converged flag differs from the reference")
    return out
