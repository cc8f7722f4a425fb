"""Seeded inputs for the benchmark workloads.

Everything here depends only on the seed, never on the dynte package, so a
change to the program cannot change what it is fed. Files are written with
fixed formats, so one seed always gives byte-identical inputs.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_DAYS = 6552                      # 2000-01-03 .. 2025-02: all three crisis windows
START = dt.date(2000, 1, 3)
SECTORS = ("XLB", "XLC", "XLE", "XLF", "XLI", "XLK", "XLP", "XLRE", "XLU", "XLV", "XLY")
ROLES = ("eq", "bd", "vix", "tlt", "sectors")
INCOMPLETE_SHARE = 0.01            # rows written with an empty cell, per file
MISSING_SHARE = 0.005              # dates a file leaves out altogether

# per regime (calm, stressed): annual drift, annual vol
_EQ = ((0.09, 0.14), (-0.10, 0.35))
_BD = ((0.04, 0.04), (0.05, 0.07))
_TLT = ((0.04, 0.10), (0.08, 0.18))
_VIX_MEAN = (14.0, 31.0)
_STAY = (0.995, 0.98)


def weekdays(start: dt.date, n: int) -> list[dt.date]:
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


@dataclass
class CsvInputs:
    """The files of one `exhibits_csv` seed and what was planted in them.
    Values are as written, on all N_DAYS weekdays."""

    files: dict[str, Path]           # role -> path, relative to the work dir
    incomplete: dict[str, int]       # role -> rows with an empty cell
    days: list[dt.date]
    bad: dict[str, np.ndarray]       # role -> indices missing or incomplete
    eq: np.ndarray
    bd: np.ndarray
    vix: np.ndarray
    sectors: np.ndarray              # (N_DAYS, 11)

    def calendar(self, roles) -> np.ndarray:
        """Indices of the days complete in every file of `roles`."""
        ok = np.ones(len(self.days), dtype=bool)
        for role in roles:
            ok[self.bad[role]] = False
        return np.flatnonzero(ok)


def _disturbed(rng: np.random.Generator, n: int, share: float) -> np.ndarray:
    """Indices to disturb, never two adjacent and never the first or last
    date, so the shared calendar has no gap longer than one weekday, far
    inside the ingest limit of MAX_WEEKDAY_GAP (10) weekdays."""
    picked = np.zeros(n, dtype=bool)
    u = rng.random(n)
    for i in range(1, n - 1):
        if u[i] < share and not picked[i - 1]:
            picked[i] = True
    return np.flatnonzero(picked)


def write_csv_inputs(seed: int, workdir: Path) -> CsvInputs:
    rng = np.random.default_rng([seed, 0xD17E])
    n = N_DAYS
    days = weekdays(START, n)

    u = rng.random(n)
    state = np.empty(n, dtype=np.int64)
    s = 0
    for t in range(n):
        state[t] = s
        s = s if u[t] < _STAY[s] else 1 - s

    def leg(params, z):
        drift = np.array([p[0] for p in params])[state] / 252.0
        vol = np.array([p[1] for p in params])[state] / np.sqrt(252.0)
        return drift + vol * z

    z_eq = rng.standard_normal(n)
    r_eq = leg(_EQ, z_eq)
    r_bd = leg(_BD, -0.3 * z_eq + np.sqrt(1 - 0.09) * rng.standard_normal(n))
    r_tlt = leg(_TLT, -0.4 * z_eq + np.sqrt(1 - 0.16) * rng.standard_normal(n))
    vix = np.empty(n)
    v = _VIX_MEAN[0]
    noise = rng.standard_normal(n)
    for t in range(n):
        v = v + 0.08 * (_VIX_MEAN[state[t]] - v) + 1.2 * noise[t]
        vix[t] = max(v, 9.0)
    # sectors load on the market and co-move more in the stressed regime
    beta = rng.uniform(0.7, 1.3, len(SECTORS))
    idio = np.array([0.10, 0.16])[state][:, None] / np.sqrt(252.0)
    r_sec = beta[None, :] * r_eq[:, None] + idio * rng.standard_normal((n, len(SECTORS)))

    def levels(r):
        return 100.0 * np.cumprod(1.0 + r, axis=0)

    cols = {
        "eq": (("EQ",), levels(r_eq)[:, None]),
        "bd": (("BD",), levels(r_bd)[:, None]),
        "vix": (("VIX",), vix[:, None]),
        "tlt": (("TLT",), levels(r_tlt)[:, None]),
        "sectors": (SECTORS, levels(r_sec)),
    }

    # one draw decides, for each role, which dates it lacks and which it
    # writes with an empty cell; the two sets never touch each other
    disturbed = _disturbed(rng, n, len(ROLES) * (INCOMPLETE_SHARE + MISSING_SHARE))
    who = rng.integers(0, len(ROLES), len(disturbed))
    missing_kind = rng.random(len(disturbed)) < MISSING_SHARE / (INCOMPLETE_SHARE + MISSING_SHARE)
    blank_col = rng.integers(0, len(SECTORS), len(disturbed))

    indir = workdir / "in"
    indir.mkdir(parents=True, exist_ok=True)
    files, incomplete, bad = {}, {}, {}
    for r, role in enumerate(ROLES):
        names, mat = cols[role]
        mine = who == r
        skip = set(disturbed[mine & missing_kind].tolist())
        blank = dict(zip(disturbed[mine & ~missing_kind].tolist(),
                         blank_col[mine & ~missing_kind].tolist()))
        fmt = "%.4f" if role == "vix" else "%.6f"
        lines = ["date," + ",".join(names)]
        for i, d in enumerate(days):
            if i in skip:
                continue
            cells = [fmt % x for x in mat[i]]
            if i in blank:
                cells[blank[i] % len(cells)] = ""
            lines.append(d.isoformat() + "," + ",".join(cells))
        path = Path("in") / f"{role}.csv"
        (workdir / path).write_text("\n".join(lines) + "\n")
        files[role] = path
        incomplete[role] = len(blank)
        bad[role] = disturbed[mine]

    def as_written(mat, fmt):
        return np.array([[float(fmt % x) for x in row] for row in mat])

    return CsvInputs(
        files=files,
        incomplete=incomplete,
        days=days,
        bad=bad,
        eq=as_written(cols["eq"][1], "%.6f")[:, 0],
        bd=as_written(cols["bd"][1], "%.6f")[:, 0],
        vix=as_written(cols["vix"][1], "%.4f")[:, 0],
        sectors=as_written(cols["sectors"][1], "%.6f"),
    )


def csv_config(inputs: CsvInputs) -> dict:
    data = {role: {"path": str(inputs.files[role]), "column": role.upper()}
            for role in ROLES if role != "sectors"}
    data["sectors"] = {"path": str(inputs.files["sectors"]), "columns": list(SECTORS)}
    return {"svg": False, "out": "out", "data": data}


def synth_config(seed: int) -> dict:
    return {"synth": {"horizon": N_DAYS, "start_date": START.isoformat(), "seed": seed},
            "svg": False, "out": "out"}


def write_config(cfg: dict, path: Path) -> None:
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
