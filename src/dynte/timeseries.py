"""Calendar-aligned market data containers, CSV ingestion, and a seeded
two-state synthetic market generator.

Containers are immutable after construction and safe to share across
threads. All annualization in this package assumes 252 trading days.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

TRADING_DAYS_PER_YEAR = 252

UNIT_PRICE = "price"
UNIT_RETURN = "simple-return"
UNIT_LEVEL = "level"
_VALID_UNITS = frozenset((UNIT_PRICE, UNIT_RETURN, UNIT_LEVEL))

# State codes used by the synthetic generator and the regime model.
STATE_LOW = 0
STATE_HIGH = 1

SYNTH_SYMBOLS = ("BENCH_EQ", "BENCH_BD", "SPREAD", "VIX")

# More than this many missing weekdays between consecutive observations is
# treated as a corrupt feed rather than a holiday stretch.
MAX_WEEKDAY_GAP = 10


def _as_date(d) -> dt.date:
    if isinstance(d, dt.datetime):
        return d.date()
    if isinstance(d, dt.date):
        return d
    return dt.date.fromisoformat(str(d))


@dataclass(frozen=True)
class TradingCalendar:
    """Strictly increasing, unique weekday dates."""

    dates: tuple[dt.date, ...]

    def __post_init__(self):
        if len(self.dates) == 0:
            raise ValueError("calendar must be non-empty")
        prev = None
        for d in self.dates:
            if d.weekday() >= 5:
                raise ValueError(f"calendar date {d} falls on a weekend")
            if prev is not None and d <= prev:
                raise ValueError(f"calendar dates not strictly increasing at {d}")
            prev = d

    @cached_property
    def _index(self) -> dict[dt.date, int]:
        return {d: i for i, d in enumerate(self.dates)}

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, i: int) -> dt.date:
        return self.dates[i]

    def __contains__(self, d) -> bool:
        return _as_date(d) in self._index

    def index(self, d) -> int:
        d = _as_date(d)
        try:
            return self._index[d]
        except KeyError:
            raise ValueError(f"date {d} not on calendar") from None

    def suffix(self, start: int) -> "TradingCalendar":
        if not 0 <= start < len(self.dates):
            raise ValueError(f"suffix start {start} out of range")
        return TradingCalendar(self.dates[start:])

    def window(self, start=None, end=None) -> "TradingCalendar":
        """Sub-calendar with start <= date <= end (either bound optional)."""
        lo = _as_date(start) if start is not None else self.dates[0]
        hi = _as_date(end) if end is not None else self.dates[-1]
        kept = tuple(d for d in self.dates if lo <= d <= hi)
        if not kept:
            raise ValueError(f"no calendar dates in [{lo}, {hi}]")
        return TradingCalendar(kept)

    def is_suffix_of(self, other: "TradingCalendar") -> bool:
        k = len(other) - len(self)
        return k >= 0 and other.dates[k:] == self.dates


def intersect_calendars(cals: Iterable[TradingCalendar]) -> TradingCalendar:
    cals = list(cals)
    if not cals:
        raise ValueError("need at least one calendar")
    common = set(cals[0].dates)
    for c in cals[1:]:
        common &= set(c.dates)
    if not common:
        raise ValueError("calendars have empty intersection")
    return TradingCalendar(tuple(sorted(common)))


@dataclass(frozen=True)
class Series:
    """One float per calendar date, tagged with a unit.

    Units: "price" (finite, > 0), "simple-return" (finite, > -1), "level"
    (free-form; NaN allowed and marks dates where a derived statistic is
    undefined, e.g. a correlation over a zero-variance window).
    """

    calendar: TradingCalendar
    values: np.ndarray
    unit: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        if len(vals) != len(self.calendar):
            raise ValueError(
                f"length mismatch: {len(vals)} values on {len(self.calendar)}-date calendar"
            )
        if self.unit not in _VALID_UNITS:
            raise ValueError(f"unknown unit {self.unit!r}")
        if self.unit == UNIT_PRICE:
            if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
                raise ValueError("prices must be finite and positive")
        elif self.unit == UNIT_RETURN:
            if not np.all(np.isfinite(vals)) or np.any(vals <= -1.0):
                raise ValueError("simple returns must be finite and > -1")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.calendar)

    def at(self, d) -> float:
        return float(self.values[self.calendar.index(d)])

    def restrict(self, calendar: TradingCalendar) -> "Series":
        """Values sampled at the given calendar; every date must exist here."""
        idx = np.fromiter(
            (self.calendar.index(d) for d in calendar.dates), dtype=np.intp
        )
        return Series(calendar, self.values[idx], self.unit)

    def window(self, start=None, end=None) -> "Series":
        return self.restrict(self.calendar.window(start, end))

    def suffix(self, start: int) -> "Series":
        return Series(self.calendar.suffix(start), self.values[start:], self.unit)


@dataclass(frozen=True)
class AssetPanel:
    """Several symbols' series on one shared calendar."""

    calendar: TradingCalendar
    series: Mapping[str, Series]

    def __post_init__(self):
        if not self.series:
            raise ValueError("panel needs at least one symbol")
        syms = list(self.series)
        if len(set(syms)) != len(syms):
            raise ValueError("duplicate symbols in panel")
        for sym, s in self.series.items():
            if s.calendar.dates != self.calendar.dates:
                raise ValueError(f"symbol {sym} not on the shared calendar")
        object.__setattr__(self, "series", MappingProxyType(dict(self.series)))

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self.series)

    def __getitem__(self, sym: str) -> Series:
        try:
            return self.series[sym]
        except KeyError:
            raise ValueError(f"symbol {sym!r} not in panel") from None


@dataclass(frozen=True)
class IngestResult:
    panel: AssetPanel
    dropped_dates: tuple[dt.date, ...]

    @property
    def n_dropped(self) -> int:
        return len(self.dropped_dates)


_MISSING_CELLS = frozenset(("", "na", "nan", "null", "none", "#n/a"))


def ingest_csv(
    path,
    columns: Sequence[str] | None = None,
    date_column: str = "date",
    unit: str = UNIT_PRICE,
) -> IngestResult:
    """Load a wide CSV (first column ISO dates, remaining columns symbols).

    Rows where any requested symbol is missing are dropped and reported.
    Raises on malformed dates, non-numeric cells, duplicate dates, empty
    result, or a gap of more than MAX_WEEKDAY_GAP weekdays between
    consecutive surviving rows.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 2:
            raise ValueError(f"{path}: need a date column plus at least one symbol")
        if header[0] != date_column:
            raise ValueError(
                f"{path}: first column is {header[0]!r}, expected {date_column!r}"
            )
        symbols = header[1:]
        if columns is not None:
            missing = [c for c in columns if c not in symbols]
            if missing:
                raise ValueError(f"{path}: columns not found: {missing}")
            symbols = list(columns)
        col_pos = {sym: header.index(sym) for sym in symbols}

        rows: list[tuple[dt.date, list[float | None]]] = []
        for lineno, raw in enumerate(reader, start=2):
            if not raw or all(not c.strip() for c in raw):
                continue
            try:
                d = dt.date.fromisoformat(raw[0].strip())
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: malformed date {raw[0]!r}"
                ) from None
            cells: list[float | None] = []
            for sym in symbols:
                pos = col_pos[sym]
                cell = raw[pos].strip() if pos < len(raw) else ""
                if cell.lower() in _MISSING_CELLS:
                    cells.append(None)
                    continue
                try:
                    cells.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric cell {cell!r} in column {sym}"
                    ) from None
            rows.append((d, cells))

    rows.sort(key=lambda r: r[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise ValueError(f"{path}: duplicate date {d1}")

    kept_dates: list[dt.date] = []
    kept_vals: list[list[float]] = []
    dropped: list[dt.date] = []
    for d, cells in rows:
        if any(v is None for v in cells):
            dropped.append(d)
        else:
            kept_dates.append(d)
            kept_vals.append(cells)  # type: ignore[arg-type]
    if not kept_dates:
        raise ValueError(f"{path}: no complete rows (empty intersection)")

    for d1, d2 in zip(kept_dates, kept_dates[1:]):
        between = int(np.busday_count(d1, d2)) - 1
        if between > MAX_WEEKDAY_GAP:
            raise ValueError(
                f"{path}: gap of {between} weekdays between {d1} and {d2}"
            )

    cal = TradingCalendar(tuple(kept_dates))
    mat = np.asarray(kept_vals, dtype=np.float64)
    series = {
        sym: Series(cal, mat[:, j], unit) for j, sym in enumerate(symbols)
    }
    return IngestResult(AssetPanel(cal, series), tuple(dropped))


def returns_from_prices(prices: Series) -> Series:
    """Simple returns p_t / p_{t-1} - 1 on the one-step suffix calendar."""
    if prices.unit != UNIT_PRICE:
        raise ValueError(f"need a price series, got unit {prices.unit!r}")
    if len(prices) < 2:
        raise ValueError("need at least two prices")
    vals = prices.values[1:] / prices.values[:-1] - 1.0
    return Series(prices.calendar.suffix(1), vals, UNIT_RETURN)


def prices_from_returns(returns: Series, initial: float = 100.0) -> Series:
    """Compound an index level path from simple returns; level dated at each
    return's date, starting from `initial` one step before the calendar."""
    if returns.unit != UNIT_RETURN:
        raise ValueError(f"need a return series, got unit {returns.unit!r}")
    if initial <= 0:
        raise ValueError("initial level must be positive")
    vals = initial * np.cumprod(1.0 + returns.values)
    return Series(returns.calendar, vals, UNIT_PRICE)


def make_weekday_calendar(start: dt.date, n: int) -> TradingCalendar:
    """n consecutive weekdays beginning at the first weekday >= start."""
    if n <= 0:
        raise ValueError("calendar length must be positive")
    d = _as_date(start)
    while d.weekday() >= 5:
        d += dt.timedelta(days=1)
    out = []
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return TradingCalendar(tuple(out))


@dataclass(frozen=True)
class SynthParams:
    """Two-state world: a persistent Markov chain drives the drift and
    volatility of the benchmark legs and of the long/short spread, plus the
    mean level of the fear gauge. Annualized drifts and vols; daily draws
    use drift/252 and vol/sqrt(252).
    """

    transition: tuple[tuple[float, float], tuple[float, float]] = (
        (0.98, 0.02),
        (0.04, 0.96),
    )
    # (calm state, stressed state); spread information ratio doubles in stress
    alpha: tuple[float, float] = (0.024, 0.12)
    sigma: tuple[float, float] = (0.08, 0.20)
    eq_drift: tuple[float, float] = (0.10, 0.00)
    eq_vol: tuple[float, float] = (0.12, 0.30)
    bd_drift: tuple[float, float] = (0.04, 0.04)
    bd_vol: tuple[float, float] = (0.05, 0.07)
    vix_mean: tuple[float, float] = (12.0, 30.0)
    vix_noise: float = 1.0
    horizon: int = 2520
    seed: int = 0
    start_state: int = STATE_LOW
    start_date: dt.date = dt.date(2004, 1, 5)

    def __post_init__(self):
        P = np.asarray(self.transition, dtype=np.float64)
        if P.shape != (2, 2) or np.any(P < 0) or np.any(
            np.abs(P.sum(axis=1) - 1.0) > 1e-12
        ):
            raise ValueError("transition must be 2x2 row-stochastic")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.start_state not in (STATE_LOW, STATE_HIGH):
            raise ValueError("start_state must be STATE_LOW or STATE_HIGH")
        for name in ("sigma", "eq_vol", "bd_vol"):
            if min(getattr(self, name)) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.vix_noise < 0:
            raise ValueError("vix_noise must be non-negative")


def synth_regime_panel(params: SynthParams) -> tuple[AssetPanel, np.ndarray]:
    """Simulate the panel {BENCH_EQ, BENCH_BD, SPREAD, VIX} plus the true
    state path (0 = calm, 1 = stressed).

    Deterministic for a given seed. Draw order is fixed: state-transition
    uniforms, then spread normals, equity normals, bond normals, gauge
    noise uniforms.
    """
    n = params.horizon
    rng = np.random.default_rng(params.seed)
    P = np.asarray(params.transition, dtype=np.float64)

    u = rng.random(n)
    states = np.empty(n, dtype=np.int64)
    s = params.start_state
    for t in range(n):
        states[t] = s
        # stay/leave decided by one uniform against the stay probability
        s = s if u[t] < P[s, s] else 1 - s

    z_spread = rng.standard_normal(n)
    z_eq = rng.standard_normal(n)
    z_bd = rng.standard_normal(n)
    vix_u = rng.random(n)

    root = np.sqrt(TRADING_DAYS_PER_YEAR)
    alpha = np.asarray(params.alpha)[states]
    sigma = np.asarray(params.sigma)[states]
    spread = alpha / TRADING_DAYS_PER_YEAR + (sigma / root) * z_spread
    eq = (
        np.asarray(params.eq_drift)[states] / TRADING_DAYS_PER_YEAR
        + (np.asarray(params.eq_vol)[states] / root) * z_eq
    )
    bd = (
        np.asarray(params.bd_drift)[states] / TRADING_DAYS_PER_YEAR
        + (np.asarray(params.bd_vol)[states] / root) * z_bd
    )
    vix = np.asarray(params.vix_mean)[states] + params.vix_noise * (2.0 * vix_u - 1.0)

    cal = make_weekday_calendar(params.start_date, n)
    panel = AssetPanel(
        cal,
        {
            "BENCH_EQ": Series(cal, eq, UNIT_RETURN),
            "BENCH_BD": Series(cal, bd, UNIT_RETURN),
            "SPREAD": Series(cal, spread, UNIT_RETURN),
            "VIX": Series(cal, vix, UNIT_LEVEL),
        },
    )
    states.setflags(write=False)
    return panel, states
