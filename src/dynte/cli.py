"""Command-line entry point.

Subcommands: synth, exhibit N (1..7), converge, omega, regret, sweep,
props. Settings come from a versioned JSON config; flags override config
fields. Outputs are CSV tables named {name}_{hash}.csv where the hash is
derived from the command, the effective config less `out` and `svg`, and
the bytes of the input files, never from the clock, so a re-run with the
same config and inputs writes byte-identical CSVs under the same names.
Optional SVG charts accompany time-series tables. Exit codes: 0 success,
2 bad flags or config, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .events import (
    DEFAULT_OMEGA_HORIZONS,
    DEFAULT_REGRET_HORIZONS,
    DEFAULT_SWEEP_WINDOWS,
    RegretEntry,
    find_trough,
    omega_table,
    regret_table,
    window_sweep,
)
from .inference import BootstrapSpec, circular_block_bootstrap
from .metrics import METRICS_CSV_HEADER, drawdown_path, summarize
from .model import GovernanceParams, RegimeParams, proposition_suite
from .regime import RegimePath, RegimeThresholds, classify
from .rolling import WindowSpec, rolling_avg_pairwise_corr, rolling_corr
from .simulate import (
    DEFAULT_CAPS,
    OverlayPolicy,
    SimResult,
    benchmark_7030,
    simulate_overlay,
)
from .timeseries import (
    UNIT_LEVEL,
    UNIT_PRICE,
    AssetPanel,
    Series,
    SynthParams,
    ingest_csv,
    intersect_calendars,
    prices_from_returns,
    returns_from_prices,
    synth_regime_panel,
)

CONFIG_VERSION = 1


class ConfigError(Exception):
    """Invalid config or flags; reported with the offending field."""

    def __init__(self, fieldname: str, msg: str):
        super().__init__(f"{fieldname}: {msg}")
        self.field = fieldname


_ROLE_KEYS = ("eq", "bd", "vix", "tlt", "rf", "spread", "sectors")
# top-level objects whose own keys are free-form, so not merged with defaults
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
    "caps": [float(c) for c in DEFAULT_CAPS],
    "omega_horizons": list(DEFAULT_OMEGA_HORIZONS),
    "regret_horizons": list(DEFAULT_REGRET_HORIZONS),
    "sweep_windows": list(DEFAULT_SWEEP_WINDOWS),
    "crises": {
        "gfc": ["2007-10-01", "2009-06-30"],
        "covid": ["2020-01-01", "2020-06-30"],
        "tightening_2022": ["2022-01-01", "2022-12-31"],
    },
    "bootstrap": {"block": 63, "iterations": 10000, "seed": 0, "confidence": 0.95},
    "synth": {},
    "model": {"alpha": [0.02, 0.10], "sigma": [0.10, 0.25], "p": 0.3, "tau_bar": 0.05},
}


# the JSON values a key takes, by the type of its default; a bool is never
# taken for a number
_ACCEPTS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    type(None): ((str, type(None)), "a string or null"),
    list: ((list,), "a list"),
}


def _merge_defaults(user: dict, defaults: dict, path: str = "") -> dict:
    out = dict(defaults)
    for k, v in user.items():
        if k not in defaults:
            raise ConfigError(f"{path}{k}", "unknown config key")
        if not isinstance(defaults[k], dict):
            kinds, what = _ACCEPTS[type(defaults[k])]
            if not isinstance(v, kinds) or (isinstance(v, bool) and bool not in kinds):
                raise ConfigError(f"{path}{k}", f"expected {what}, got {v!r}")
            out[k] = v
        elif not isinstance(v, dict):
            raise ConfigError(f"{path}{k}", "expected an object")
        elif not path and k in _FREE_FORM:
            out[k] = v
        else:
            out[k] = _merge_defaults(v, defaults[k], f"{path}{k}.")
    return out


def _checked(section: str, build):
    """build(), with a range error in the section reported as a config error."""
    try:
        return build()
    except (TypeError, ValueError) as e:
        raise ConfigError(section, str(e)) from None


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully-resolved settings; `raw` is the canonical dict the
    output hash is computed from."""

    raw: dict

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def out_dir(self) -> Path:
        return Path(self.raw["out"])

    @property
    def svg(self) -> bool:
        return self.raw["svg"]

    def window(self, name: str) -> WindowSpec:
        return _checked(f"windows.{name}", lambda: WindowSpec(self.raw["windows"][name]))

    @property
    def thresholds(self) -> RegimeThresholds:
        t = self.raw["thresholds"]
        return _checked("thresholds", lambda: RegimeThresholds(
            low=float(t["low"]), high=float(t["high"])))

    @property
    def dynamic_policy(self) -> OverlayPolicy:
        p = self.raw["policy"]
        return _checked("policy", lambda: OverlayPolicy.dynamic(
            low=float(p["low"]), neutral=float(p["neutral"]),
            high=float(p["high"]), theta_cap=float(p["theta_cap"]),
        ))

    @property
    def static_policy(self) -> OverlayPolicy:
        p = self.raw["policy"]
        return _checked("policy", lambda: OverlayPolicy.static(
            target=float(p["static"]), theta_cap=float(p["theta_cap"]),
        ))

    @property
    def caps(self) -> list[float | None]:
        return [None if c is None else float(c) for c in self.raw["caps"]]

    @property
    def bootstrap_spec(self) -> BootstrapSpec:
        b = self.raw["bootstrap"]
        return _checked("bootstrap", lambda: BootstrapSpec(
            block=b["block"], iterations=b["iterations"],
            seed=b["seed"], confidence=float(b["confidence"]),
        ))

    @property
    def synth_params(self) -> SynthParams:
        s = dict(self.raw["synth"])
        s.setdefault("seed", self.seed)
        if "start_date" in s:
            s["start_date"] = dt.date.fromisoformat(s["start_date"])
        for k in ("transition", "alpha", "sigma", "eq_drift", "eq_vol",
                  "bd_drift", "bd_vol", "vix_mean"):
            if k in s:
                s[k] = tuple(tuple(r) for r in s[k]) if k == "transition" else tuple(s[k])
        return _checked("synth", lambda: SynthParams(**s))

    @property
    def model_params(self) -> tuple[RegimeParams, GovernanceParams]:
        m = self.raw["model"]
        return _checked("model", lambda: (
            RegimeParams(alpha=tuple(m["alpha"]), sigma=tuple(m["sigma"]), p=float(m["p"])),
            GovernanceParams(tau_bar=float(m["tau_bar"])),
        ))

    def date_range(self) -> tuple[dt.date | None, dt.date | None]:
        r = self.raw["range"]
        out = []
        for k in ("start", "end"):
            v = r.get(k)
            if v is None:
                out.append(None)
            else:
                try:
                    out.append(dt.date.fromisoformat(v))
                except ValueError:
                    raise ConfigError(f"range.{k}", f"bad ISO date {v!r}") from None
        return out[0], out[1]

    def role(self, name: str, required_by: str):
        d = self.raw["data"].get(name)
        if d is None:
            raise ConfigError(f"data.{name}", f"required for {required_by}")
        if not isinstance(d, dict) or "path" not in d:
            raise ConfigError(f"data.{name}", "expected {path, column|columns}")
        return d

    @cached_property
    def input_digests(self) -> dict[str, str]:
        """SHA-256 of each configured input file, read once per run."""
        out = {}
        for name, spec in self.raw["data"].items():
            if spec is None:
                continue
            path = self.role(name, "the output hash")["path"]
            try:
                out[name] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            except FileNotFoundError:
                raise ConfigError(f"data.{name}.path", f"file not found: {path}") from None
        return out


def load_config(path: str | None, overrides: dict[str, Any]) -> RunConfig:
    user: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError("config", f"file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError("config", f"invalid JSON: {e}") from None
        if not isinstance(user, dict):
            raise ConfigError("config", "top level must be an object")
        if user.get("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ConfigError("version", f"unsupported version {user.get('version')!r}")

    raw = _merge_defaults(user, _DEFAULTS)

    if overrides.get("out") is not None:
        raw["out"] = overrides["out"]
    if overrides.get("seed") is not None:
        raw["seed"] = overrides["seed"]
        raw["bootstrap"] = dict(raw["bootstrap"], seed=overrides["seed"])
        raw["synth"] = dict(raw["synth"], seed=overrides["seed"])
    if overrides.get("caps") is not None:
        raw["caps"] = overrides["caps"]
    if overrides.get("windows") is not None:
        raw["sweep_windows"] = overrides["windows"]
    if overrides.get("horizons") is not None:
        raw["omega_horizons"] = overrides["horizons"]
        raw["regret_horizons"] = overrides["horizons"]

    for name in ("caps", "omega_horizons", "regret_horizons", "sweep_windows"):
        v = raw[name]
        if len(v) == 0:
            raise ConfigError(name, "must be non-empty")
        # caps are positive numbers or null (uncapped); the rest are day counts
        kind, what = ((int, float), "number or null") if name == "caps" else (int, "integer")
        for i, x in enumerate(v):
            if x is None and name == "caps":
                continue
            if isinstance(x, bool) or not isinstance(x, kind) or not x > 0:
                raise ConfigError(f"{name}[{i}]", f"expected a positive {what}, got {x!r}")
    for k, v in raw["data"].items():
        if k not in _ROLE_KEYS:
            raise ConfigError(f"data.{k}", f"unknown role; expected one of {_ROLE_KEYS}")
    cfg = RunConfig(raw=raw)
    # build the range-checked sections now, so a bad value fails every command
    for name in raw["windows"]:
        cfg.window(name)
    for section in ("thresholds", "dynamic_policy", "static_policy", "bootstrap_spec"):
        getattr(cfg, section)
    return cfg


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
    integers as integers, text as is, any other number as repr(float), which
    reads back to the same float."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return repr(float(x))


def _write_csv(cfg: RunConfig, stem: str, token: str, header: Sequence[str],
               rows: list[list]) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{stem}_{_cfg_hash(cfg, token)}.csv"
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([_cell(x) for x in row] for row in rows)
    return path


_SVG_W, _SVG_H = 900, 450
_SVG_LEFT, _SVG_RIGHT, _SVG_TOP, _SVG_BOTTOM = 80, 20, 20, 40
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd")


def _maybe_svg(cfg: RunConfig, stem: str, token: str, dates, named_series: dict,
               ylabel: str) -> Path | None:
    """Line chart of each named series against dates, written as plain SVG.

    Each series is a group of <polyline>s, broken wherever a value is not
    finite; the y axis spans the finite range of all series. Coordinates are
    printed at fixed precision, so a rerun writes identical bytes.
    """
    if not cfg.svg:
        return None
    from html import escape as esc  # here, so chartless runs skip its import

    x0, x1 = _SVG_LEFT, _SVG_W - _SVG_RIGHT
    y0, y1 = _SVG_H - _SVG_BOTTOM, _SVG_TOP
    days = np.array([d.toordinal() for d in dates], dtype=float)
    xs = (x0 + (days - days[0]) * ((x1 - x0) / ((days[-1] - days[0]) or 1.0))).tolist()
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
        f'<text x="{x0}" y="{y0 + 16}" text-anchor="start">{dates[0].isoformat()}</text>',
        f'<text x="{x1}" y="{y0 + 16}" text-anchor="end">{dates[-1].isoformat()}</text>',
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
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{stem}_{_cfg_hash(cfg, token)}.svg"
    path.write_text("\n".join(parts))
    return path


def _write_dated(cfg: RunConfig, stem: str, token: str, dates, columns: dict,
                 chart: dict | None = None, ylabel: str = "") -> list[Path]:
    """One `date, column...` CSV, a row per date. With `chart`, the SVG of
    those series goes alongside."""
    cols = [np.asarray(v).tolist() for v in columns.values()]
    rows = [[d.isoformat(), *vals] for d, *vals in zip(dates, *cols)]
    out = [_write_csv(cfg, stem, token, ["date", *columns], rows)]
    svg = _maybe_svg(cfg, stem, token, dates, chart, ylabel) if chart else None
    return out + [svg] if svg else out


# ----------------------------------------------------------- data loading --

@dataclass
class Market:
    """Everything the exhibit pipeline needs, aligned to one calendar of
    daily returns (prices keep one extra leading date). Roles a command did
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


def _load_role(cfg: RunConfig, name: str, command: str) -> Series | AssetPanel:
    """One configured input: a panel of columns for `sectors`, else a
    single-column series (vix and rf are levels, the rest prices)."""
    spec = cfg.role(name, command)
    if name == "sectors":
        cols = spec.get("columns")
    elif isinstance(spec.get("column"), str):
        cols = [spec["column"]]
    else:
        raise ConfigError(f"data.{name}.column", "expected a column name")
    unit = UNIT_LEVEL if name in ("vix", "rf") else UNIT_PRICE
    try:
        panel = ingest_csv(spec["path"], columns=cols, unit=unit).panel
    except FileNotFoundError:
        raise ConfigError(f"data.{name}.path", f"file not found: {spec['path']}") from None
    if name != "sectors":
        return panel[cols[0]]
    if len(panel.symbols) < 2:
        raise ConfigError("data.sectors", "need at least two sector columns")
    return panel


def load_market(cfg: RunConfig, command: str,
                need: Sequence[str] = ("eq", "bd", "vix")) -> Market:
    # optional roles load when configured; eq and bd only when needed, since
    # every loaded role narrows the shared calendar
    optional = [r for r in ("tlt", "spread", "sectors", "rf")
                if cfg.raw["data"].get(r) is not None]
    roles = {name: _load_role(cfg, name, command)
             for name in dict.fromkeys([*need, *optional])}

    cal = intersect_calendars([v.calendar for v in roles.values()])
    start, end = cfg.date_range()
    cal = cal.window(start, end)
    if len(cal) < 3:
        raise ValueError("fewer than three shared dates after alignment")
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

    rf: Series | float = 0.0
    if "rf" in roles:
        annual = roles["rf"].restrict(rcal)
        rf = Series(rcal, annual.values / 252.0, UNIT_LEVEL)

    sectors = None
    if "sectors" in roles:
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
        rf=rf,
        tlt=rets("tlt"),
        sectors=sectors,
    )


def synthetic_market(cfg: RunConfig) -> Market:
    """In-memory synthetic equivalent of load_market, for data-free runs."""
    panel, _states = synth_regime_panel(cfg.synth_params)
    eq = panel["BENCH_EQ"]
    eq_p = prices_from_returns(eq)
    return Market(
        eq_prices=eq_p,
        eq=eq,
        bd=panel["BENCH_BD"],
        spread=panel["SPREAD"],
        vix=panel["VIX"],
        vix_full=panel["VIX"],
    )


def _market_or_synth(cfg: RunConfig, command: str,
                     need: Sequence[str] = ("eq", "bd", "vix")) -> Market:
    if all(cfg.raw["data"].get(r) is not None for r in need):
        return load_market(cfg, command, need)
    if any(cfg.raw["data"].get(r) is not None for r in need):
        missing = [r for r in need if cfg.raw["data"].get(r) is None]
        raise ConfigError(f"data.{missing[0]}", f"required for {command}")
    return synthetic_market(cfg)


@dataclass
class Engine:
    """The benchmark, regime path and smoothed gauge of one run. The static
    and dynamic overlays are simulated on first use, so commands that never
    read them do not pay for them."""

    cfg: RunConfig
    market: Market
    bench: SimResult
    path: RegimePath
    smoothed_vix: Series

    def overlay(self, policy: OverlayPolicy) -> SimResult:
        return simulate_overlay(self.bench, self.market.spread, self.path, policy,
                                self.cfg.window("vol"))

    @cached_property
    def static(self) -> SimResult:
        return self.overlay(self.cfg.static_policy)

    @cached_property
    def dynamic(self) -> SimResult:
        return self.overlay(self.cfg.dynamic_policy)


def build_engine(cfg: RunConfig, market: Market) -> Engine:
    if market.eq is None or market.bd is None or market.spread is None:
        raise ValueError("benchmark legs are missing")
    path = classify(market.vix, cfg.window("signal"), cfg.thresholds)
    return Engine(
        cfg=cfg,
        market=market,
        bench=benchmark_7030(market.eq, market.bd),
        path=path,
        smoothed_vix=Series(path.calendar, path.signal, market.vix.unit),
    )


# -------------------------------------------------------------- commands --

def cmd_synth(cfg: RunConfig) -> list[Path]:
    """Write the synthetic panel as index levels plus the true state path."""
    panel, states = synth_regime_panel(cfg.synth_params)
    dates = panel.calendar.dates
    columns = {sym: prices_from_returns(panel[sym]).values
               for sym in ("BENCH_EQ", "BENCH_BD", "SPREAD")}
    columns["VIX"] = panel["VIX"].values
    return (_write_dated(cfg, "synth_panel", "synth", dates, columns)
            + _write_dated(cfg, "synth_states", "synth", dates, {"state": states}))


def _exhibit1(cfg: RunConfig) -> list[Path]:
    market = load_market(cfg, "exhibit 1", need=("sectors", "vix"))
    avg = rolling_avg_pairwise_corr(market.sectors, cfg.window("pairwise_corr"))
    vix = market.vix_full.restrict(avg.calendar)
    return _write_dated(cfg, "exhibit1", "exhibit1", avg.calendar.dates,
                        {"avg_pairwise_corr": avg.values, "vix": vix.values},
                        {"avg pairwise corr": avg.values}, "correlation")


def _exhibit2(cfg: RunConfig) -> list[Path]:
    market = _market_or_synth(cfg, "exhibit 2")
    w = cfg.window("stock_bond_corr")
    corr = {"eq_bd": rolling_corr(market.eq, market.bd, w)}
    if market.tlt is not None:
        corr["eq_tlt"] = rolling_corr(market.eq, market.tlt, w)
    return _write_dated(cfg, "exhibit2", "exhibit2", corr["eq_bd"].calendar.dates,
                        {f"corr_{k}": c.values for k, c in corr.items()},
                        {k: c.values for k, c in corr.items()}, "correlation")


def _exhibit3(cfg: RunConfig) -> list[Path]:
    eng = build_engine(cfg, _market_or_synth(cfg, "exhibit 3"))
    rows = []
    for name, sim in (("benchmark", eng.bench), ("static", eng.static),
                      ("dynamic", eng.dynamic)):
        rep = summarize(sim.portfolio, rf=eng.market.rf, te=sim.te,
                        smoothed_vix=eng.smoothed_vix)
        row = rep.csv_row()
        # display convention: drawdowns are losses, shown negative
        row[3] = -rep.max_drawdown
        rows.append([name, *row])
    return [_write_csv(cfg, "exhibit3", "exhibit3", ["portfolio", *METRICS_CSV_HEADER], rows)]


def _exhibit4(cfg: RunConfig) -> list[Path]:
    eng = build_engine(cfg, _market_or_synth(cfg, "exhibit 4"))
    te_s, te_d = eng.static.te, eng.dynamic.te
    assert te_s is not None and te_d is not None
    sm = eng.smoothed_vix.restrict(te_s.calendar)
    return _write_dated(cfg, "exhibit4", "exhibit4", te_s.calendar.dates,
                        {"te_static": te_s.values, "te_dynamic": te_d.values,
                         "smoothed_vix": sm.values},
                        {"static": te_s.values, "dynamic": te_d.values},
                        "realized tracking error")


def cmd_omega(cfg: RunConfig) -> list[Path]:
    market = _market_or_synth(cfg, "omega", need=("eq", "vix"))
    horizons = [int(h) for h in cfg.raw["omega_horizons"]]
    rep = omega_table(market.vix_full, market.eq_prices, horizons)
    return [_write_csv(cfg, "exhibit5", "omega", rep.CSV_HEADER, rep.csv_rows())]


def cmd_regret(cfg: RunConfig, market: Market | None = None,
               bench: SimResult | None = None) -> list[Path]:
    """Stay-vs-derisk table from the trough of each crisis window; windows
    with no trading day in the sample are skipped, and horizons that run past
    its end are left empty, both named on stderr."""
    if market is None:
        market = _market_or_synth(cfg, "regret")
    if bench is None:
        bench = benchmark_7030(market.eq, market.bd)
    troughs, skipped = [], []
    for name, span in cfg.raw["crises"].items():
        try:
            w = (dt.date.fromisoformat(span[0]), dt.date.fromisoformat(span[1]))
        except (ValueError, IndexError, TypeError):
            raise ConfigError(f"crises.{name}", "expected [start, end] ISO dates") from None
        if any(w[0] <= d <= w[1] for d in bench.calendar.dates):
            troughs.append((name, find_trough(bench, w, market.vix)))
        else:
            skipped.append(name)
    if skipped:
        print(f"regret: skipped crisis windows with no trading days: "
              f"{', '.join(skipped)}", file=sys.stderr)
    horizons = [int(h) for h in cfg.raw["regret_horizons"]]
    entries = regret_table(market.eq, market.bd, troughs, horizons)
    short = [f"{e.name} {h}" for e in entries
             for h, s in zip(e.horizons, e.stay) if s is None]
    if short:
        print(f"regret: left empty, horizons past the end of the sample: "
              f"{', '.join(short)}", file=sys.stderr)
    rows = [row for e in entries for row in e.csv_rows()]
    return [_write_csv(cfg, "exhibit6b", "regret", RegretEntry.CSV_HEADER, rows)]


def _exhibit6(cfg: RunConfig) -> list[Path]:
    market = _market_or_synth(cfg, "exhibit 6")
    bench = benchmark_7030(market.eq, market.bd)
    dd = drawdown_path(bench.portfolio)
    return _write_dated(cfg, "exhibit6a", "exhibit6", bench.calendar.dates,
                        {"drawdown": dd, "vix": market.vix.values},
                        {"drawdown": dd}, "drawdown from peak") + cmd_regret(cfg, market, bench)


def cmd_converge(cfg: RunConfig) -> list[Path]:
    eng = build_engine(cfg, _market_or_synth(cfg, "converge"))
    bspec = cfg.bootstrap_spec
    header = ["cap", "cagr", "vol", "sharpe", "max_drawdown", "te_level",
              "te_sigma", "sharpe_ci_lo", "sharpe_ci_hi", "ci_width"]
    rows = []
    for cap in cfg.caps:
        sim = eng.overlay(cfg.dynamic_policy.with_ceiling(cap))
        rep = summarize(sim.portfolio, rf=eng.market.rf, te=sim.te,
                        smoothed_vix=eng.smoothed_vix)
        boot = circular_block_bootstrap(sim.portfolio, bspec, "sharpe")
        rows.append([
            "uncapped" if cap is None else cap,
            rep.cagr, rep.vol, rep.sharpe, rep.max_drawdown, rep.te_level,
            rep.te_sigma, boot.ci_lo, boot.ci_hi, boot.width,
        ])
    return [_write_csv(cfg, "exhibit7", "converge", header, rows)]


def cmd_sweep(cfg: RunConfig) -> list[Path]:
    market = _market_or_synth(cfg, "sweep")
    pct = cfg.raw["percentiles"]
    rep = window_sweep(
        market.vix, market.eq, market.bd, market.spread,
        windows=[int(w) for w in cfg.raw["sweep_windows"]],
        percentiles=(float(pct["low"]), float(pct["high"])),
        dynamic=cfg.dynamic_policy,
        static=cfg.static_policy,
        vol_window=cfg.window("vol"),
        rf=market.rf,
    )
    return [_write_csv(cfg, "sweep", "sweep", rep.CSV_HEADER, rep.csv_rows())]


def cmd_props(cfg: RunConfig) -> list[Path]:
    rp, gov = cfg.model_params
    rep = proposition_suite(rp, gov)
    return [_write_csv(cfg, "props", "props", rep.CSV_HEADER, rep.csv_rows())]


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


def _parse_caps(text: str) -> list[float | None]:
    out: list[float | None] = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok.lower() in ("uncapped", "none", "inf"):
            out.append(None)
        else:
            try:
                out.append(float(tok))
            except ValueError:
                raise ConfigError("--caps", f"bad cap {tok!r}") from None
    return out


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(t.strip()) for t in text.split(",")]
    except ValueError:
        raise ConfigError(flag, f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--seed", metavar="N", type=int, help="master seed")
    common.add_argument("--caps", metavar="LIST",
                        help="comma-separated TE ceilings; 'uncapped' allowed")
    common.add_argument("--windows", metavar="LIST",
                        help="comma-separated signal windows for sweep")
    common.add_argument("--horizons", metavar="LIST",
                        help="comma-separated forward horizons in trading days")

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
        overrides = {
            "out": args.out,
            "seed": args.seed,
            "caps": _parse_caps(args.caps) if args.caps else None,
            "windows": _parse_ints(args.windows, "--windows") if args.windows else None,
            "horizons": _parse_ints(args.horizons, "--horizons") if args.horizons else None,
        }
        cfg = load_config(args.config, overrides)
        run = COMMANDS[args.command][1]
        if isinstance(run, dict):
            if args.n not in run:
                raise ConfigError("exhibit", f"exhibit number must be 1..7, got {args.n}")
            run = run[args.n]
        paths = run(cfg)
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
