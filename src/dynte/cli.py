"""Command-line entry point.

Subcommands: synth, exhibit N (1..7), converge, omega, regret, sweep,
props. Settings come from the versioned JSON config --config names, and
--out names the output directory; there are no other flags.
_merge_defaults alone decides which JSON value a setting takes,
checking each against its default (the `synth` section against
SynthParams' field defaults), and a bad value fails naming its key and
index, e.g. `synth.transition[0][0]`. Each command takes a Run, which
builds the market, benchmark, regime path and overlays its tables share
once; Run.overlay simulates every overlay a table shows, the sweep's
included, each sized on the one trailing spread vol, Run.vol. The library
returns results; each command here lays out its own tables' columns and
returns them as Table values, touching no file; main hands them to the one
writer, _write_tables, which publishes all of a command's files or, when a
command or a write fails, none. Only this module touches the file
system: load_config reads each input file once and keeps its bytes, which
the library parses. Outputs are CSV tables named {name}_{hash}.csv where
the hash is derived from the command, the effective config less `out` and
`svg`, and those bytes, never from the clock, so a re-run with the same
config and inputs writes byte-identical CSVs under the same names.
Optional SVG charts accompany time-series tables. Exit codes: 0 success,
2 bad flags or config, 1 runtime failure.
"""

from __future__ import annotations

import datetime as dt
import gc
import hashlib
import json
import math
import os
import sys
from functools import cached_property
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ._record import record
from .events import find_trough, omega_table, regret_table
from .inference import BootstrapSpec, circular_block_bootstrap
from .metrics import MetricsReport, drawdown_path, excess_returns, summarize
from .model import GovernanceParams, RegimeParams, proposition_suite
from .regime import RegimePath, RegimeThresholds, classify, percentile_thresholds
from .rolling import moving_average, rolling_avg_pairwise_corr, rolling_corr
from .simulate import OverlayPolicy, SimResult, benchmark_7030, simulate_overlay, sizing_vol
from .timeseries import (
    UNIT_LEVEL,
    UNIT_PRICE,
    AssetPanel,
    Series,
    SynthParams,
    TradingCalendar,
    csv_header,
    ingest_csv,
    intersect_calendars,
    parse_date,
    prices_from_returns,
    returns_from_prices,
    synth_regime_panel,
)

# every later collection, and the walk at exit, skips the import heap
gc.freeze()

CONFIG_VERSION = 1


class ConfigError(Exception):
    """Invalid config; reported with the offending field."""

    def __init__(self, fieldname: str, msg: str):
        super().__init__(f"{fieldname}: {msg}")
        self.field = fieldname


_ROLE_KEYS = ("eq", "bd", "vix", "tlt", "rf", "spread", "sectors")
# top-level objects whose own keys are free-form, so kept as given: load_config
# checks `data` and `crises`, and merges `synth` over _SYNTH_DEFAULTS
_FREE_FORM = frozenset({"data", "synth", "crises"})

_DEFAULTS: dict[str, Any] = {
    "version": CONFIG_VERSION,
    "seed": 0,
    "out": "out",
    "svg": True,
    "data": {},
    "range": {"start": None, "end": None},
    "windows": {
        "signal": 21,
        "vol": 63,
        "pairwise_corr": 63,
        "stock_bond_corr": 126,
    },
    "thresholds": {"low": 13.0, "high": 22.0},
    "percentiles": {"low": 0.16, "high": 0.76},
    "policy": {
        "low": 0.005,
        "neutral": 0.02,
        "high": 0.05,
        "static": 0.02,
        "theta_cap": 0.25,
    },
    "caps": np.linspace(0.005, 0.05, 11).tolist(),
    "omega_horizons": [21, 42, 63, 126, 252],
    "regret_horizons": [63, 126, 252],
    "sweep_windows": [1, 5, 21, 63],
    "crises": {
        "gfc": ["2007-10-01", "2009-06-30"],
        "covid": ["2020-01-01", "2020-06-30"],
        "tightening_2022": ["2022-01-01", "2022-12-31"],
    },
    "bootstrap": {"block": 63, "iterations": 10000, "confidence": 0.95},
    "synth": {},
    "model": {"alpha": (0.02, 0.10), "sigma": (0.10, 0.25), "p": 0.3, "tau_bar": 0.05},
}
_SYNTH_DEFAULTS = {k: getattr(SynthParams, k) for k in SynthParams.__annotations__}


# the JSON values a scalar key takes, by the type of its default; a bool is
# never taken for a number (tuple and date defaults: see _value)
_ACCEPTS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    type(None): ((str, type(None)), "a string or null"),
    list: ((list,), "a list"),
}


def _value(fieldname: str, v, default):
    """v checked against its setting's default: a tuple default takes a list
    of exactly as many values, each checked against its own default, and
    gives a tuple; a date default parses a YYYY-MM-DD string; a number is
    finite (JSON's NaN and Infinity are refused)."""
    if isinstance(default, tuple):
        if not isinstance(v, list) or len(v) != len(default):
            raise ConfigError(fieldname, f"expected a list of {len(default)} values, got {v!r}")
        return tuple(_value(f"{fieldname}[{i}]", x, d)
                     for i, (x, d) in enumerate(zip(v, default)))
    if isinstance(default, dt.date):
        return _iso(fieldname, v)
    kinds, what = _ACCEPTS[type(default)]
    if not isinstance(v, kinds) or (isinstance(v, bool) and bool not in kinds):
        raise ConfigError(fieldname, f"expected {what}, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(fieldname, f"expected a finite number, got {v!r}")
    return v


def _merge_defaults(user: dict, defaults: dict, path: str = "") -> dict:
    """The one check of which JSON value a setting takes: `user` merged over
    `defaults`, each value checked against its default's type."""
    out = dict(defaults)
    for k, v in user.items():
        if k not in defaults:
            raise ConfigError(f"{path}{k}", "unknown config key")
        if not isinstance(defaults[k], dict):
            out[k] = _value(f"{path}{k}", v, defaults[k])
        elif not isinstance(v, dict):
            raise ConfigError(f"{path}{k}", "expected an object")
        elif not path and k in _FREE_FORM:
            out[k] = v
        else:
            out[k] = _merge_defaults(v, defaults[k], f"{path}{k}.")
    return out


def _checked(section: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a range error in the section reported as
    a config error."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(section, str(e)) from None


def _blame(fieldname: str, build, *args):
    """build(*args), with a runtime failure reported against the setting
    that caused it; still a runtime error (exit 1), not a config error."""
    try:
        return build(*args)
    except ValueError as e:
        raise ValueError(f"{fieldname}: {e}") from None


def _iso(fieldname: str, text) -> dt.date:
    try:
        return parse_date(text)
    except ValueError:
        raise ConfigError(fieldname, f"bad ISO date {text!r}") from None


def _ordered(fieldname: str, start: dt.date | None,
             end: dt.date | None) -> tuple[dt.date | None, dt.date | None]:
    if start is not None and end is not None and start > end:
        raise ConfigError(fieldname, f"start {start} is after end {end}")
    return start, end


@record
class RunConfig:
    """Validated, fully-resolved settings, built once by load_config. `raw`
    is the canonical dict the output hash is computed from; commands read
    the typed fields."""

    raw: dict
    out_dir: Path
    svg: bool
    windows: dict[str, int]
    thresholds: RegimeThresholds
    percentiles: tuple[float, float]
    dynamic_policy: OverlayPolicy
    static_policy: OverlayPolicy
    caps: list[float | None]
    omega_horizons: tuple[int, ...]
    regret_horizons: tuple[int, ...]
    sweep_windows: tuple[int, ...]
    crises: dict[str, tuple[dt.date, dt.date]]
    bootstrap_spec: BootstrapSpec
    synth_params: SynthParams
    model_params: tuple[RegimeParams, GovernanceParams]
    date_range: tuple[dt.date | None, dt.date | None]
    # role -> (path, columns); columns None reads every column of a sectors file
    roles: dict[str, tuple[str, list[str] | None]]
    # role -> the bytes of its file, read once per run
    inputs: dict[str, bytes]

    @cached_property
    def input_digests(self) -> dict[str, str]:
        return {name: hashlib.sha256(data).hexdigest() for name, data in self.inputs.items()}


def _roles(data: dict) -> tuple[dict, dict[str, bytes]]:
    """Each configured input role as (path, columns), and its file's bytes;
    every role is checked before any file is read, and each file's header
    must hold the columns its role names, two or more for sectors (a
    malformed header raises the ValueError ingest_csv would)."""
    roles = {}
    for name, spec in data.items():
        if name not in _ROLE_KEYS:
            raise ConfigError(f"data.{name}", f"unknown role; expected one of {_ROLE_KEYS}")
        if spec is None:
            continue
        if not isinstance(spec, dict) or not isinstance(spec.get("path"), str):
            raise ConfigError(f"data.{name}", "expected {path, column|columns}")
        known = ("path", "columns" if name == "sectors" else "column")
        unknown = next((k for k in spec if k not in known), None)
        if unknown is not None:
            raise ConfigError(f"data.{name}.{unknown}", "unknown config key")
        if name != "sectors":
            if not isinstance(spec.get("column"), str):
                raise ConfigError(f"data.{name}.column", "expected a column name")
            cols = [spec["column"]]
        else:
            cols = spec.get("columns")
            if cols is not None:
                if not (isinstance(cols, list) and all(isinstance(c, str) for c in cols)):
                    raise ConfigError("data.sectors.columns", "expected a list of column names")
                if not cols or len(set(cols)) < len(cols):
                    raise ConfigError("data.sectors.columns",
                                      f"expected one or more names, none twice, got {cols}")
        roles[name] = (spec["path"], cols)
    inputs = {}
    for name, (path, cols) in roles.items():
        inputs[name] = _read_bytes(f"data.{name}.path", path)
        symbols = csv_header(path, inputs[name])[1:]
        missing = [c for c in cols or () if c not in symbols]
        if missing:
            key = "columns" if name == "sectors" else "column"
            raise ConfigError(f"data.{name}.{key}", f"{path}: columns not found: {missing}")
        if name == "sectors" and len(cols or symbols) < 2:
            raise ConfigError("data.sectors", "need at least two sector columns")
    return roles, inputs


def _fs_path(fieldname: str, path: str) -> Path:
    """`path` as a Path; a name the file system cannot encode is a config
    error naming `fieldname`."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise ConfigError(fieldname, f"path {path!r} is not UTF-8 text") from None
    return Path(path)


def _read_bytes(fieldname: str, path: str) -> bytes:
    """The bytes of the file at `path`; failing to read them is a config
    error naming `fieldname`."""
    try:
        return _fs_path(fieldname, path).read_bytes()
    except FileNotFoundError:
        raise ConfigError(fieldname, f"file not found: {path}") from None
    except OSError as e:
        raise ConfigError(fieldname, f"cannot read {path}: {e.strerror or e}") from None


def load_config(path: str | None, overrides: dict[str, Any]) -> RunConfig:
    """The config file merged over the defaults, with each non-None override
    (keyed by config field) in place of its field, checked and converted,
    and the bytes of each configured input file."""
    user: dict = {}
    if path is not None:
        try:
            user = json.loads(_read_bytes("config", path).decode("utf-8-sig"))
        except UnicodeDecodeError:
            raise ConfigError("config", "not UTF-8 text") from None
        except json.JSONDecodeError as e:
            raise ConfigError("config", f"invalid JSON: {e}") from None
        if not isinstance(user, dict):
            raise ConfigError("config", "top level must be an object")
        if user.get("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ConfigError("version", f"unsupported version {user.get('version')!r}")

    raw = _merge_defaults({**user, **{k: v for k, v in overrides.items() if v is not None}},
                          _DEFAULTS)

    for name in ("caps", "omega_horizons", "regret_horizons", "sweep_windows"):
        v = raw[name]
        if len(v) == 0:
            raise ConfigError(name, "must be non-empty")
        # caps are positive numbers or null (uncapped); the rest are day counts
        kind, what = ((int, float), "number or null") if name == "caps" else (int, "integer")
        for i, x in enumerate(v):
            if x is None and name == "caps":
                continue
            if name == "caps" and isinstance(x, float) and not math.isfinite(x):
                raise ConfigError(f"caps[{i}]", f"expected a finite number, got {x!r}")
            if isinstance(x, bool) or not isinstance(x, kind) or not x > 0:
                raise ConfigError(f"{name}[{i}]", f"expected a positive {what}, got {x!r}")
    for name, n in raw["windows"].items():
        if not n > 0:
            raise ConfigError(f"windows.{name}", f"expected a positive integer, got {n!r}")
    if raw["seed"] < 0:
        raise ConfigError("seed", f"expected a non-negative integer, got {raw['seed']!r}")
    synth_params = _checked("synth", SynthParams, **_merge_defaults(
        {"seed": raw["seed"], **raw["synth"]}, _SYNTH_DEFAULTS, "synth."))
    out_dir = _fs_path("out", raw["out"])
    found = next((p for p in (out_dir, *out_dir.parents) if os.path.exists(p)), None)
    if found is not None and not os.path.isdir(found):
        raise ConfigError("out", f"{str(found)!r} is not a directory")
    roles, inputs = _roles(raw["data"])
    r = raw["range"]
    date_range = _ordered("range", *(None if r[k] is None else _iso(f"range.{k}", r[k])
                                     for k in ("start", "end")))
    crises = {}
    for name, span in raw["crises"].items():
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError("crises", f"name {name!r} is not UTF-8 text") from None
        if "\r" in name or "\n" in name:
            raise ConfigError("crises", f"name {name!r} is not one line of text")
        if not isinstance(span, list) or len(span) != 2:
            raise ConfigError(f"crises.{name}", "expected [start, end] ISO dates")
        crises[name] = _ordered(f"crises.{name}", *(_iso(f"crises.{name}", d) for d in span))
    pct = raw["percentiles"]
    lo, hi = float(pct["low"]), float(pct["high"])
    if not 0.0 < lo < hi < 1.0:
        raise ConfigError("percentiles", f"need 0 < low < high < 1, got low={lo} high={hi}")
    t, p, b, m = raw["thresholds"], raw["policy"], raw["bootstrap"], raw["model"]
    return RunConfig(
        raw=raw,
        out_dir=out_dir,
        svg=raw["svg"],
        windows=raw["windows"],
        thresholds=_checked("thresholds", RegimeThresholds,
                            low=float(t["low"]), high=float(t["high"])),
        percentiles=(lo, hi),
        dynamic_policy=_checked("policy", OverlayPolicy, float(p["low"]), float(p["neutral"]),
                                float(p["high"]), float(p["theta_cap"])),
        static_policy=_checked("policy", OverlayPolicy, *[float(p["static"])] * 3,
                               float(p["theta_cap"])),
        caps=[None if c is None else float(c) for c in raw["caps"]],
        omega_horizons=tuple(raw["omega_horizons"]),
        regret_horizons=tuple(raw["regret_horizons"]),
        sweep_windows=tuple(raw["sweep_windows"]),
        crises=crises,
        bootstrap_spec=_checked("bootstrap", BootstrapSpec, block=b["block"],
                                iterations=b["iterations"], seed=raw["seed"],
                                confidence=float(b["confidence"])),
        synth_params=synth_params,
        model_params=_checked("model", lambda: (
            RegimeParams(alpha=tuple(map(float, m["alpha"])),
                         sigma=tuple(map(float, m["sigma"])), p=float(m["p"])),
            GovernanceParams(tau_bar=float(m["tau_bar"])),
        )),
        date_range=date_range,
        roles=roles,
        inputs=inputs,
    )


# ---------------------------------------------------------------- output --

def _cfg_hash(cfg: RunConfig, token: str) -> str:
    """Digest of the command token, the config less `out` and `svg` (neither
    changes a table) and the bytes of every configured input file."""
    hashed = {k: v for k, v in cfg.raw.items() if k not in ("out", "svg")}
    blob = json.dumps({"cmd": token, "cfg": hashed, "inputs": cfg.input_digests},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _cell(x) -> str:
    """How every CSV cell prints: None empty, booleans as true/false,
    integers as integers, text as is, dates as ISO, any other number as
    repr(float), which reads back to the same float."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        # quoted as csv.writer quotes it; a table's other cells never need it
        return '"' + x.replace('"', '""') + '"' if any(c in x for c in ',"\n') else x
    if isinstance(x, dt.date):
        return x.isoformat()
    return repr(float(x))


def _column_text(column) -> list[str]:
    """The cells of one column as _cell prints them. A float array prints
    as repr over its tolist(), and a datetime64 array (a calendar's `days`)
    as ISO dates in one datetime_as_string call: the same text, without a
    Python object and a type dispatch per cell."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return list(map(repr, column.tolist()))
        if column.dtype.kind == "M":
            return np.datetime_as_string(column, unit="D").tolist()
    return [_cell(x) for x in column]


@record
class Table:
    """One output table: `header`, and in `columns` a sequence of cells per
    header field, written as {stem}_{hash}.csv with the hash taken over
    `token`; with `chart` (legend label -> column), an SVG of those columns
    against the `date` column, its y axis labelled `ylabel`, goes alongside."""

    stem: str
    token: str
    header: Sequence[str]
    columns: Sequence[Sequence]
    chart: dict[str, str] | None = None
    ylabel: str = ""


def _from_rows(stem: str, token: str, header: Sequence[str], rows: list[list]) -> Table:
    """The table of `rows`, each a list of one cell per header field."""
    return Table(stem, token, header, [[row[i] for row in rows] for i in range(len(header))])


def _write_tables(cfg: RunConfig, tables: Sequence[Table]) -> list[Path]:
    """The one writer: each table as a line of `header`, then one per row
    of its columns, formatted column by column, and its chart when `svg` is
    on. Every file is written under a temporary name and moved into place
    once all are written; if any fails, none is published or left behind."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    staged: list[tuple[Path, Path]] = []

    def stage(path: Path, text: str) -> None:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        staged.append((tmp, path))
        tmp.write_text(text, encoding="utf-8", newline="")

    try:
        for t in tables:
            path = cfg.out_dir / f"{t.stem}_{_cfg_hash(cfg, t.token)}.csv"
            lines = [",".join(map(_cell, t.header)),
                     *map(",".join, zip(*map(_column_text, t.columns)))]
            stage(path, "\n".join(lines) + "\n")
            if t.chart and cfg.svg:
                cols = dict(zip(t.header, t.columns))
                stage(path.with_suffix(".svg"), _svg(
                    cols["date"], {label: cols[c] for label, c in t.chart.items()}, t.ylabel))
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
    return [path for _, path in staged]


_SVG_W, _SVG_H = 900, 450
_SVG_LEFT, _SVG_RIGHT, _SVG_TOP, _SVG_BOTTOM = 80, 20, 20, 40
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd")


def _svg(dates, named_series: dict, ylabel: str) -> str:
    """Line chart of each named series against `dates` (a calendar's
    datetime64 `days`, or anything that converts to them), as plain SVG.

    Each series is a group of <polyline>s, broken wherever a value is not
    finite; the y axis spans the finite range of all series. Coordinates are
    printed at fixed precision, so a rerun writes identical bytes.
    """
    from html import escape as esc  # here, so chartless runs skip its import

    x0, x1 = _SVG_LEFT, _SVG_W - _SVG_RIGHT
    y0, y1 = _SVG_H - _SVG_BOTTOM, _SVG_TOP
    days = np.asarray(dates, dtype="datetime64[D]")
    elapsed = (days - days[0]).astype(float)
    xs = (x0 + elapsed * ((x1 - x0) / (elapsed[-1] or 1.0))).tolist()
    first, last = np.datetime_as_string(days[[0, -1]], unit="D").tolist()
    cols = {name: np.asarray(v, dtype=float) for name, v in named_series.items()}
    allv = np.concatenate(list(cols.values()))
    finite = allv[np.isfinite(allv)]
    lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 0.0)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}" '
        'font-family="sans-serif" font-size="11">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<g stroke="black" fill="none"><line x1="{x0}" y1="{y0}" x2="{x1}" '
        f'y2="{y0}"/><line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}"/></g>',
        f'<text x="{x0 - 4}" y="{y0}" text-anchor="end">{lo:.4g}</text>',
        f'<text x="{x0 - 4}" y="{y1 + 8}" text-anchor="end">{hi:.4g}</text>',
        f'<text transform="translate(16 {(y0 + y1) / 2:.2f}) rotate(-90)" '
        f'text-anchor="middle">{esc(ylabel)}</text>',
        f'<text x="{x0}" y="{y0 + 16}" text-anchor="start">{first}</text>',
        f'<text x="{x1}" y="{y0 + 16}" text-anchor="end">{last}</text>',
    ]
    for k, (name, vals) in enumerate(cols.items()):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        parts.append(f'<g data-series="{esc(name)}" stroke="{color}" '
                     'stroke-width="1" fill="none">')
        ys = y0 + (vals - lo) * ((y1 - y0) / (hi - lo))
        run: list[str] = []
        for x, y, ok in zip(xs, ys.tolist(), np.isfinite(ys).tolist()):
            if ok:
                run.append(f"{x:.2f},{y:.2f}")
            elif run:
                parts.append(f'<polyline points="{" ".join(run)}"/>')
                run = []
        if run:
            parts.append(f'<polyline points="{" ".join(run)}"/>')
        parts.append("</g>")
        ly = y1 + 14 * k + 6
        parts.append(f'<line x1="{x1 - 150}" y1="{ly}" x2="{x1 - 130}" '
                     f'y2="{ly}" stroke="{color}"/>')
        parts.append(f'<text x="{x1 - 125}" y="{ly + 4}">{esc(name)}</text>')
    parts.append("</svg>\n")
    return "\n".join(parts)


# ----------------------------------------------------------- data loading --

@record
class Market:
    """Everything the exhibit pipeline needs, aligned to one calendar of
    daily returns. From files, eq_prices and vix_full keep the price
    calendar, one date longer at the start; the synthetic panel has no
    price file, so there both are on the return calendar (vix_full is vix,
    and eq_prices compounds eq). Only omega reads those two fields; every
    other command reads the return calendar's series. Roles a command did
    not ask for stay None."""

    vix: Series            # level, on the return calendar
    vix_full: Series       # level, on the price calendar
    eq_prices: Series | None = None
    eq: Series | None = None
    bd: Series | None = None
    spread: Series | None = None
    rf: Series | float = 0.0
    tlt: Series | None = None
    sectors: AssetPanel | None = None


def _load_role(cfg: RunConfig, name: str) -> tuple[Series | AssetPanel, int]:
    """One configured input: a panel of columns for `sectors`, else a
    single-column series (vix and rf are levels, the rest prices), with the
    number of incomplete rows the file dropped."""
    path, cols = cfg.roles[name]
    unit = UNIT_LEVEL if name in ("vix", "rf") else UNIT_PRICE
    res = ingest_csv(path, cfg.inputs[name], columns=cols, unit=unit)
    return res.panel if name == "sectors" else res.panel[cols[0]], res.n_dropped


def load_market(cfg: RunConfig, need: Sequence[str]) -> Market:
    # optional roles load when configured; eq and bd only when needed, since
    # every loaded role narrows the shared calendar
    optional = [r for r in ("tlt", "spread", "sectors", "rf") if r in cfg.roles]
    loaded = {name: _load_role(cfg, name)
              for name in dict.fromkeys([*need, *optional])}
    roles = {name: v for name, (v, _) in loaded.items()}

    cal = intersect_calendars([v.calendar for v in roles.values()])
    every = np.sort(np.concatenate([v.calendar.days for v in roles.values()]), kind="stable")
    lost = np.count_nonzero(every[1:] != every[:-1]) + 1 - len(cal)
    print("data: " + "; ".join(
        f"{cfg.roles[name][0]} dropped {n} incomplete rows"
        for name, (_, n) in loaded.items())
        + f"; intersection dropped {lost} dates", file=sys.stderr)
    cal = _in_range(cfg, cal)
    rcal = cal.suffix(1)

    def rets(name: str) -> Series | None:
        if name not in roles:
            return None
        return returns_from_prices(roles[name].restrict(cal))

    eq_p = roles["eq"].restrict(cal) if "eq" in roles else None
    eq = returns_from_prices(eq_p) if eq_p is not None else None
    bd = rets("bd")

    spread = rets("spread")
    if spread is None and eq is not None and bd is not None:
        spread = Series(rcal, eq.values - bd.values, eq.unit)

    vix_full = roles["vix"].restrict(cal)

    # the sectors file narrows every calendar, but only exhibit 1 reads its returns
    sectors = None
    if "sectors" in need:
        panel: AssetPanel = roles["sectors"]  # type: ignore[assignment]
        sectors = AssetPanel(
            rcal,
            {sym: returns_from_prices(panel[sym].restrict(cal))
             for sym in panel.symbols},
        )

    return Market(
        vix=vix_full.restrict(rcal),
        vix_full=vix_full,
        eq_prices=eq_p,
        eq=eq,
        bd=bd,
        spread=spread,
        rf=roles["rf"].restrict(rcal) if "rf" in roles else 0.0,
        tlt=rets("tlt"),
        sectors=sectors,
    )


def _in_range(cfg: RunConfig, cal: TradingCalendar) -> TradingCalendar:
    """The dates of cal inside the configured range; at least three."""
    cal = _blame("range", cal.window, *cfg.date_range)
    if len(cal) < 3:
        raise ValueError("range: fewer than three shared dates")
    return cal


def synthetic_market(cfg: RunConfig) -> Market:
    """In-memory synthetic equivalent of load_market, for data-free runs,
    windowed to the configured range like a file calendar."""
    panel, _states = _blame("synth", synth_regime_panel, cfg.synth_params)
    cal = _in_range(cfg, panel.calendar)
    print(f"data: synthetic panel, seed {cfg.synth_params.seed}, {len(cal)} days "
          f"from {cal.days[0]} to {cal.days[-1]}", file=sys.stderr)
    eq = panel["BENCH_EQ"].restrict(cal)
    vix = panel["VIX"].restrict(cal)
    return Market(
        eq_prices=prices_from_returns(eq),
        eq=eq,
        bd=panel["BENCH_BD"].restrict(cal),
        spread=panel["SPREAD"].restrict(cal),
        vix=vix,
        vix_full=vix,
    )


def _check_signal(cfg: RunConfig, fieldname: str, days: int) -> None:
    """A gauge smoothed over `days` can size the overlay only if that window
    is no longer than windows.vol: the first decision reads the label of day
    windows.vol, and a longer window gives its first label later."""
    vol = cfg.windows["vol"]
    if days > vol:
        raise ValueError(f"{fieldname}: the {days}-day window may not exceed windows.vol "
                         f"({vol}); the overlay's first decision reads the label of day {vol}")


class Run:
    """One command's config and what its tables share: the market, the 70/30
    benchmark, the spread's sizing vol, the regime path and the reference
    overlays, each built on first use. `command` is the form the user typed,
    for error messages. It touches no file; main writes what a command returns."""

    def __init__(self, cfg: RunConfig, command: str):
        self.cfg = cfg
        self.command = command
        self._markets: dict[tuple[str, ...], Market] = {}

    def market(self, need: tuple[str, ...] = ("eq", "bd", "vix")) -> Market:
        """The market with the roles in `need`, built once per role set: the
        synthetic panel when no data role is configured and `need` has no
        sectors (it has none), else the files; a needed role left out is a config error."""
        if need not in self._markets:
            missing = [r for r in need if r not in self.cfg.roles]
            if missing and (self.cfg.roles or "sectors" in need):
                raise ConfigError(f"data.{missing[0]}", f"required for {self.command}")
            self._markets[need] = (synthetic_market(self.cfg) if missing
                                   else load_market(self.cfg, need))
        return self._markets[need]

    @cached_property
    def bench(self) -> Series:
        return benchmark_7030(self.market().eq, self.market().bd)

    @cached_property
    def vol(self) -> Series:
        """The spread's trailing vol every overlay of the run is sized on."""
        return _blame("windows.vol", sizing_vol, self.market().spread, self.cfg.windows["vol"])

    @cached_property
    def path(self) -> RegimePath:
        w = self.cfg.windows["signal"]
        path = _blame("windows.signal", classify, self.market().vix, w, self.cfg.thresholds)
        _check_signal(self.cfg, "windows.signal", w)
        return path

    def overlay(self, policy: OverlayPolicy, path: RegimePath | None = None) -> SimResult:
        """`policy` overlaid on the benchmark, sized on `path` or else the
        run's regime path; a static policy reads neither."""
        if path is None and not policy.is_static:
            path = self.path
        return _blame("windows.vol", simulate_overlay, self.bench, self.market().spread,
                      self.vol, path, policy)

    @cached_property
    def static(self) -> SimResult:
        return self.overlay(self.cfg.static_policy)

    @cached_property
    def dynamic(self) -> SimResult:
        return self.overlay(self.cfg.dynamic_policy)


# -------------------------------------------------------------- commands --

def cmd_synth(run: Run) -> list[Table]:
    """The synthetic panel as index levels, and its true state path."""
    panel, states = _blame("synth", synth_regime_panel, run.cfg.synth_params)
    dates = panel.calendar.days
    legs = ("BENCH_EQ", "BENCH_BD", "SPREAD")
    levels = [prices_from_returns(panel[sym]).values for sym in legs]
    return [Table("synth_panel", "synth", ["date", *legs, "VIX"],
                  [dates, *levels, panel["VIX"].values]),
            Table("synth_states", "synth", ["date", "state"], [dates, states])]


def _exhibit1(run: Run) -> list[Table]:
    cfg, market = run.cfg, run.market(need=("sectors", "vix"))
    avg = _blame("windows.pairwise_corr", rolling_avg_pairwise_corr, market.sectors,
                 cfg.windows["pairwise_corr"])
    vix = market.vix.restrict(avg.calendar)
    return [Table("exhibit1", "exhibit1", ["date", "avg_pairwise_corr", "vix"],
                  [avg.calendar.days, avg.values, vix.values],
                  {"avg pairwise corr": "avg_pairwise_corr"}, "correlation")]


def _exhibit2(run: Run) -> list[Table]:
    cfg, market = run.cfg, run.market()
    legs = {"eq_bd": market.bd, "eq_tlt": market.tlt}
    corr = {k: _blame("windows.stock_bond_corr", rolling_corr, market.eq, leg,
                      cfg.windows["stock_bond_corr"])
            for k, leg in legs.items() if leg is not None}
    return [Table("exhibit2", "exhibit2", ["date", *(f"corr_{k}" for k in corr)],
                  [corr["eq_bd"].calendar.days, *(c.values for c in corr.values())],
                  {k: f"corr_{k}" for k in corr}, "correlation")]


def _exhibit3(run: Run) -> list[Table]:
    metrics = ("cagr", "vol", "sharpe", "max_drawdown", "cagr_over_maxdd",
               "te_level", "te_sigma", "te_cyclicality")
    rows = []
    for name, returns, te in (("benchmark", run.bench.values, None),
                              ("static", run.static.portfolio, run.static.te),
                              ("dynamic", run.dynamic.portfolio, run.dynamic.te)):
        rep = summarize(returns, rf=run.market().rf, te=te, smoothed_vix=run.path.signal)
        cells = {m: getattr(rep, m) for m in metrics}
        # display convention: drawdowns are losses, shown negative
        cells["max_drawdown"] = -rep.max_drawdown
        rows.append([name, *cells.values()])
    return [_from_rows("exhibit3", "exhibit3", ["portfolio", *metrics], rows)]


def _exhibit4(run: Run) -> list[Table]:
    te_s, te_d = run.static.te, run.dynamic.te
    if te_s is None or te_d is None:
        raise ValueError(f"windows.vol: a realized tracking error needs more than twice the "
                         f"{run.cfg.windows['vol']}-day window, and the sample "
                         f"has {len(run.bench.calendar)} days")
    sm = run.path.signal.restrict(te_s.calendar)
    return [Table("exhibit4", "exhibit4", ["date", "te_static", "te_dynamic", "smoothed_vix"],
                  [te_s.calendar.days, te_s.values, te_d.values, sm.values],
                  {"static": "te_static", "dynamic": "te_dynamic"}, "realized tracking error")]


def cmd_omega(run: Run) -> list[Table]:
    cfg, market = run.cfg, run.market(need=("eq", "vix"))
    rep = _blame("omega_horizons", omega_table, market.vix_full, market.eq_prices,
                 cfg.omega_horizons)
    header = ["horizon_days", *(f"q{k}" for k in range(1, 6)), "spread_q5_q1", "nw_t",
              *(f"n_q{k}" for k in range(1, 6)), *(f"boundary_{p}" for p in (20, 40, 60, 80))]
    rows = [[h, *rep.means[i], rep.spreads[i], rep.t_stats[i], *rep.counts[i], *rep.boundaries]
            for i, h in enumerate(cfg.omega_horizons)]
    return [_from_rows("exhibit5", "omega", header, rows)]


def cmd_regret(run: Run) -> list[Table]:
    """Stay-vs-derisk table from the trough of each crisis window; windows
    with no trading day in the sample are skipped, and horizons that run past
    its end are left empty, both named on stderr."""
    cfg, market, bench = run.cfg, run.market(), run.bench
    horizons, vix = cfg.regret_horizons, market.vix
    troughs, skipped = {}, []
    for name, w in cfg.crises.items():
        i0, i1 = bench.calendar.span(*w)
        if i1 > i0:
            troughs[name] = find_trough(bench, w)
        else:
            skipped.append(name)
    if skipped:
        print(f"regret: skipped crisis windows with no trading days: "
              f"{', '.join(skipped)}", file=sys.stderr)
    entries = regret_table(market.eq, market.bd, [t.date for t in troughs.values()], horizons)
    short = [f"{name} {h}" for name, e in zip(troughs, entries)
             for h, s in zip(horizons, e.stay) if s is None]
    if short:
        print(f"regret: left empty, horizons past the end of the sample: "
              f"{', '.join(short)}", file=sys.stderr)
    header = ["crisis", "trough_date", "max_drawdown", "vix_at_trough",
              "horizon_days", "stay_70_30", "derisk_30_70", "regret"]
    rows = [[name, t.date, t.drawdown, float(vix.values[vix.calendar.index(t.date)]), h, s, d, r]
            for (name, t), e in zip(troughs.items(), entries)
            for h, s, d, r in zip(horizons, e.stay, e.derisk, e.regret)]
    return [_from_rows("exhibit6b", "regret", header, rows)]


def _exhibit6(run: Run) -> list[Table]:
    market, bench = run.market(), run.bench
    dd = drawdown_path(bench.values)
    return [Table("exhibit6a", "exhibit6", ["date", "drawdown", "vix"],
                  [bench.calendar.days, dd, market.vix.values],
                  {"drawdown": "drawdown"}, "drawdown from peak"),
            *cmd_regret(run)]


def cmd_converge(run: Run) -> list[Table]:
    cfg, rf = run.cfg, run.market().rf
    header = ["cap", "cagr", "vol", "sharpe", "max_drawdown", "te_level",
              "te_sigma", "sharpe_ci_lo", "sharpe_ci_hi", "ci_width"]
    rows = []
    for cap in cfg.caps:
        sim = run.overlay(cfg.dynamic_policy.with_ceiling(cap))
        rep = summarize(sim.portfolio, rf=rf, te=sim.te, smoothed_vix=run.path.signal)
        # the CI is of the Sharpe the row reports, of returns in excess of rf
        excess, block = excess_returns(sim.portfolio, rf), cfg.bootstrap_spec.block
        # one block of the whole series makes every resample a rotation of it
        if block >= len(excess):
            raise ValueError(f"bootstrap.block: the {block}-day block must be shorter than "
                             f"the {len(excess)}-day series it resamples")
        boot = circular_block_bootstrap(excess, cfg.bootstrap_spec)
        rows.append([
            "uncapped" if cap is None else cap,
            rep.cagr, rep.vol, rep.sharpe, rep.max_drawdown, rep.te_level, rep.te_sigma,
            boot.ci_lo, boot.ci_hi, boot.width,
        ])
    return [_from_rows("exhibit7", "converge", header, rows)]


def cmd_sweep(run: Run) -> list[Table]:
    """The dynamic overlay re-run with the gauge smoothed over each sweep
    window, thresholds re-fit at the same percentiles of each smoothed
    distribution, each scored against the run's static overlay."""
    cfg, rf = run.cfg, run.market().rf

    def scored(sim: SimResult) -> tuple[MetricsReport, float]:
        rep = summarize(sim.portfolio, rf)
        # a run that never draws down has an infinite CAGR/drawdown ratio
        return rep, math.inf if rep.cagr_over_maxdd is None else rep.cagr_over_maxdd

    st, st_calmar = scored(run.static)
    rows = []
    for i, w in enumerate(cfg.sweep_windows):
        setting = f"sweep_windows[{i}]"
        sm = _blame(setting, moving_average, run.market().vix, w)
        _check_signal(cfg, setting, w)
        th = _blame(setting, percentile_thresholds, sm, *cfg.percentiles)
        rep, calmar = scored(run.overlay(cfg.dynamic_policy, RegimePath(sm, th)))
        passes = (rep.sharpe >= st.sharpe, calmar >= st_calmar)
        rows.append([w, th.low, th.high, rep.cagr, rep.sharpe, calmar, rep.cagr - st.cagr,
                     st.cagr, st.sharpe, st_calmar, *passes, all(passes)])
    header = ["window", "threshold_low", "threshold_high", "cagr", "sharpe",
              "cagr_over_maxdd", "excess_cagr", "static_cagr", "static_sharpe",
              "static_cagr_over_maxdd", "passes_sharpe", "passes_calmar", "passes_both"]
    return [_from_rows("sweep", "sweep", header, rows)]


def cmd_props(run: Run) -> list[Table]:
    rows = [[c.prop, c.status, c.boundary,
             ";".join(f"{k}={v!r}" for k, v in c.values.items()), c.note]
            for c in proposition_suite(*run.cfg.model_params)]
    return [_from_rows("props", "props", ["prop", "status", "boundary", "values", "note"], rows)]


# ------------------------------------------------------------------ main --

# subcommand -> (help, command); `exhibit` maps its number N to a command
COMMANDS: dict[str, tuple[str, Any]] = {
    "synth": ("write a synthetic two-regime panel", cmd_synth),
    "exhibit": ("reproduce one of the numbered report tables",
                {1: _exhibit1, 2: _exhibit2, 3: _exhibit3, 4: _exhibit4,
                 5: cmd_omega, 6: _exhibit6, 7: cmd_converge}),
    "converge": ("metrics and bootstrap CIs across the TE-cap spectrum", cmd_converge),
    "omega": ("forward returns by fear-gauge quintile", cmd_omega),
    "regret": ("stay-vs-derisk outcomes from crisis troughs", cmd_regret),
    "sweep": ("signal-window robustness sweep", cmd_sweep),
    "props": ("closed-form model checks as a pass/fail table", cmd_props),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, so a process that imports cli but runs no command skips it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--out", metavar="DIR", help="output directory")

    p = argparse.ArgumentParser(
        prog="dynte",
        description="Regime-conditioned tracking-error engine",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, run) in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=text)
        if isinstance(run, dict):
            sp.add_argument("n", type=int, help="exhibit number, 1..7")
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {"out": args.out})
        command, label = COMMANDS[args.command][1], args.command
        if isinstance(command, dict):
            if args.n not in command:
                raise ConfigError("exhibit", f"exhibit number must be 1..7, got {args.n}")
            command, label = command[args.n], f"exhibit {args.n}"
        paths = _write_tables(cfg, command(Run(cfg, label)))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
