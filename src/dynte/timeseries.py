"""Calendar-aligned market data containers, CSV ingestion, and a seeded
two-state synthetic market generator.

Containers are frozen records (`dynte._record`), immutable after
construction and safe to share across threads. All annualization in this
package assumes 252 trading days.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._record import record

TRADING_DAYS_PER_YEAR = 252

UNIT_PRICE = "price"
UNIT_RETURN = "simple-return"
UNIT_LEVEL = "level"
_VALID_UNITS = frozenset((UNIT_PRICE, UNIT_RETURN, UNIT_LEVEL))

# State codes used by the synthetic generator and the regime model.
STATE_LOW = 0
STATE_HIGH = 1

# More than this many missing weekdays between consecutive observations is
# treated as a corrupt feed rather than a holiday stretch.
MAX_WEEKDAY_GAP = 10


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text) -> dt.date:
    """A date written `YYYY-MM-DD`, the one form dynte reads from files and
    configs; ValueError for any other text. `date.fromisoformat` alone also
    takes `20000104` and `2000-W01-3` from Python 3.11 on."""
    if not isinstance(text, str) or not _ISO_DATE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return dt.date.fromisoformat(text)


def _as_day(d) -> np.datetime64:
    """A datetime64, date or datetime, or YYYY-MM-DD text, as its day."""
    if not isinstance(d, (np.datetime64, dt.date)):
        d = parse_date(str(d))
    return np.datetime64(d, "D")


class TradingCalendar:
    """Strictly increasing, unique weekday dates, held as a read-only
    datetime64[D] array (`days`). Two calendars are equal when their days
    are."""

    def __init__(self, dates):
        days = np.array(dates, dtype="datetime64[D]")
        if len(days) == 0:
            raise ValueError("calendar must be non-empty")
        weekend = np.flatnonzero(~np.is_busday(days))
        disorder = np.flatnonzero(days[1:] <= days[:-1]) + 1
        first_weekend = weekend[0] if len(weekend) else len(days)
        first_disorder = disorder[0] if len(disorder) else len(days)
        if first_weekend < len(days) and first_weekend <= first_disorder:
            raise ValueError(f"calendar date {days[first_weekend].item()} falls on a weekend")
        if first_disorder < len(days):
            raise ValueError(
                f"calendar dates not strictly increasing at {days[first_disorder].item()}"
            )
        self._set(days)

    @classmethod
    def _unchecked(cls, days: np.ndarray) -> "TradingCalendar":
        """A calendar over days already known to be valid, e.g. a slice or an
        intersection of calendars."""
        cal = cls.__new__(cls)
        cal._set(days)
        return cal

    def _set(self, days: np.ndarray) -> None:
        days = days.view()
        days.setflags(write=False)
        self._days = days

    @property
    def days(self) -> np.ndarray:
        return self._days

    def __eq__(self, other) -> bool:
        if not isinstance(other, TradingCalendar):
            return NotImplemented
        return self is other or np.array_equal(self._days, other._days)

    def __hash__(self) -> int:
        return hash(self._days.tobytes())

    def __repr__(self) -> str:
        return f"TradingCalendar({len(self)} days, {self[0]}..{self[-1]})"

    def __len__(self) -> int:
        return len(self._days)

    def __getitem__(self, i: int) -> dt.date:
        return self._days[i].item()

    def index(self, d) -> int:
        day = _as_day(d)
        i = int(np.searchsorted(self._days, day))
        if i == len(self._days) or self._days[i] != day:
            raise ValueError(f"date {day.item()} not on calendar")
        return i

    def span(self, start=None, end=None) -> tuple[int, int]:
        """Positions [i0, i1) of the dates with start <= date <= end (either
        bound optional); i1 <= i0 when there are none."""
        i0 = 0 if start is None else int(np.searchsorted(self._days, _as_day(start), "left"))
        i1 = (len(self._days) if end is None
              else int(np.searchsorted(self._days, _as_day(end), "right")))
        return i0, i1

    def suffix(self, start: int) -> "TradingCalendar":
        if not 0 <= start < len(self._days):
            raise ValueError(f"suffix start {start} out of range")
        return TradingCalendar._unchecked(self._days[start:])

    def window(self, start=None, end=None) -> "TradingCalendar":
        """Sub-calendar with start <= date <= end (either bound optional)."""
        i0, i1 = self.span(start, end)
        if i1 <= i0:
            lo = _as_day(start) if start is not None else self._days[0]
            hi = _as_day(end) if end is not None else self._days[-1]
            raise ValueError(f"no calendar dates in [{lo}, {hi}]")
        return TradingCalendar._unchecked(self._days[i0:i1])


def intersect_calendars(cals: Iterable[TradingCalendar]) -> TradingCalendar:
    cals = list(cals)
    if not cals:
        raise ValueError("need at least one calendar")
    # every calendar is sorted and unique: keep the dates of `common` found
    # in each, in order, rather than re-sorting both as np.intersect1d does
    common = cals[0].days
    for c in cals[1:]:
        common = common[c.days.take(np.searchsorted(c.days, common), mode="clip") == common]
    if len(common) == 0:
        raise ValueError("calendars have empty intersection")
    return TradingCalendar._unchecked(common)


@record
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

    def restrict(self, calendar: TradingCalendar) -> "Series":
        """Values sampled at the given calendar; every date must exist here."""
        have, want = self.calendar.days, calendar.days
        idx = np.searchsorted(have, want)
        found = have[np.minimum(idx, len(have) - 1)] == want
        if not found.all():
            raise ValueError(f"date {want[np.argmin(found)].item()} not on calendar")
        return Series(calendar, self.values[idx], self.unit)


@record
class AssetPanel:
    """Several symbols' series on one shared calendar."""

    calendar: TradingCalendar
    series: Mapping[str, Series]

    def __post_init__(self):
        if not self.series:
            raise ValueError("panel needs at least one symbol")
        for sym, s in self.series.items():
            if s.calendar != self.calendar:
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


@record
class IngestResult:
    panel: AssetPanel
    dropped_dates: tuple[dt.date, ...]

    @property
    def n_dropped(self) -> int:
        return len(self.dropped_dates)


_MISSING_CELLS = frozenset(("", "na", "nan", "null", "none", "#n/a"))

# bytes of a line the vectorised reader takes: a YYYY-MM-DD date and plain
# decimal numbers, comma-separated
_PLAIN = b"0123456789+-.eE,\n"
_PLAIN_BYTES = np.zeros(256, dtype=bool)
_PLAIN_BYTES[list(_PLAIN)] = True
_DATE_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9])


def _plain_lines(body: str, n_commas: int) -> tuple[np.ndarray, np.ndarray]:
    """Which lines of `body` are plain, and their dates.

    A plain line holds plain bytes only, starts with a valid YYYY-MM-DD
    date, and has exactly `n_commas` commas and no empty cell, so it has
    no missing token, quote, padding or short row, and np.loadtxt reads its
    numbers as float() would. Every other line goes through _parse_row.
    """
    raw = body.encode()
    buf = np.frombuffer(raw, dtype=np.uint8)
    newlines = np.flatnonzero(buf == 10)
    starts = np.r_[0, newlines + 1]
    ends = np.r_[newlines, len(buf)]
    ok = ends - starts > 10
    if raw.translate(None, _PLAIN):
        ok[np.searchsorted(newlines, np.flatnonzero(~_PLAIN_BYTES[buf]))] = False
    commas = np.flatnonzero(buf == 44)
    ok &= np.diff(np.searchsorted(commas, ends), prepend=0) == n_commas
    after = buf[np.minimum(commas + 1, len(buf) - 1)]
    empty = (commas + 1 == len(buf)) | (after == 44) | (after == 10)
    ok[np.searchsorted(newlines, commas[empty])] = False

    lines = np.flatnonzero(ok)
    s = starts[lines]
    digits = buf[s[:, None] + _DATE_DIGITS].astype(np.int64) - 48
    shape = ((digits >= 0) & (digits <= 9)).all(axis=1)
    shape &= (buf[s + 4] == 45) & (buf[s + 7] == 45) & (buf[s + 10] == 44)
    year = digits[:, 0] * 1000 + digits[:, 1] * 100 + digits[:, 2] * 10 + digits[:, 3]
    month = digits[:, 4] * 10 + digits[:, 5]
    day = digits[:, 6] * 10 + digits[:, 7]
    shape &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + (day - 1)
    shape &= days.astype("datetime64[M]") == months    # day within its month
    ok[lines[~shape]] = False
    return ok, days[shape]


def _parse_row(path, lineno: int, line: str, symbols: Sequence[str],
               positions: Sequence[int]) -> tuple[dt.date, list[float]] | None:
    """One line read cell by cell: None for a blank line, else its date and
    the requested cells, NaN where a cell holds a missing token."""
    raw = next(csv.reader([line]))
    if not raw or all(not c.strip() for c in raw):
        return None
    try:
        d = parse_date(raw[0].strip())
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed date {raw[0]!r}") from None
    cells: list[float] = []
    for sym, pos in zip(symbols, positions):
        cell = raw[pos].strip() if pos < len(raw) else ""
        if cell.lower() in _MISSING_CELLS:
            cells.append(math.nan)
            continue
        try:
            x = float(cell)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: non-numeric cell {cell!r} in column {sym}"
            ) from None
        if not math.isfinite(x):
            raise ValueError(f"{path}:{lineno}: non-finite cell {cell!r} in column {sym}")
        cells.append(x)
    return d, cells


def ingest_csv(path, columns: Sequence[str] | None, unit: str) -> IngestResult:
    """Load a wide CSV (first column `date`, ISO dates; remaining columns
    symbols): the `columns` asked for, or every column for None. The file
    is UTF-8 text, with or without a byte-order mark.

    Rows may come in any order. Rows where any requested symbol is missing
    are dropped and reported. Raises, naming the line, on a byte that is not
    UTF-8; then on a column name the header repeats,
    malformed dates, non-numeric or non-finite cells (inf, a signed NaN, a
    number that overflows), duplicate dates, empty result, or a gap of more
    than MAX_WEEKDAY_GAP weekdays between consecutive surviving rows; then,
    naming the line, on a surviving row dated on a weekend or, for
    UNIT_PRICE, holding a price <= 0. A quoted cell must not span lines.

    Plain lines (see _plain_lines) are parsed as arrays; the rest, typically
    the few rows with a missing cell, one by one.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        head = data[:e.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ValueError(f"{path}:{line}: not UTF-8 text") from None
    if not text:
        raise ValueError(f"{path}: empty file")
    if "\r" in text:
        # the line ends csv.reader knows
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    head, _, body = text.partition("\n")
    header = [h.strip() for h in next(csv.reader([head]))]
    if len(header) < 2:
        raise ValueError(f"{path}: need a date column plus at least one symbol")
    if header[0] != "date":
        raise ValueError(f"{path}: first column is {header[0]!r}, expected 'date'")
    dup = next((h for i, h in enumerate(header) if h in header[:i]), None)
    if dup is not None:
        raise ValueError(f"{path}: duplicate column {dup!r} in header")
    symbols = header[1:]
    if columns is not None:
        missing = [c for c in columns if c not in symbols]
        if missing:
            raise ValueError(f"{path}: columns not found: {missing}")
        symbols = list(columns)
    positions = [header.index(sym) for sym in symbols]

    # one slot per body line: slot i is line i + 2, and a blank line keeps NaT
    lines = body.split("\n")
    days = np.full(len(lines), np.datetime64("NaT"), dtype="datetime64[D]")
    vals = np.full((len(lines), len(symbols)), np.nan)
    plain, plain_days = _plain_lines(body, len(header) - 1)
    if len(plain_days):
        plain_at = np.flatnonzero(plain)
        try:
            got = np.loadtxt([lines[i] for i in plain_at.tolist()], delimiter=",",
                             usecols=positions, comments=None, ndmin=2)
        except ValueError:
            # a cell that is no number: the row-by-row reader names the first
            plain[:] = False
        else:
            # a cell that overflows, e.g. 1e999: the row-by-row reader names it too
            finite = np.isfinite(got).all(axis=1)
            plain[plain_at[~finite]] = False
            days[plain_at[finite]], vals[plain_at[finite]] = plain_days[finite], got[finite]
    for i in np.flatnonzero(~plain).tolist():
        row = _parse_row(path, i + 2, lines[i], symbols, positions)
        if row is not None:
            days[i], vals[i] = row

    slots = np.flatnonzero(~np.isnat(days))
    slots = slots[np.argsort(days[slots], kind="stable")]
    days, vals = days[slots], vals[slots]
    complete = ~np.isnan(vals).any(axis=1)
    dup = np.flatnonzero(days[1:] == days[:-1])
    if len(dup):
        raise ValueError(f"{path}: duplicate date {days[dup[0]].item()}")
    kept = days[complete]
    if len(kept) == 0:
        raise ValueError(f"{path}: no complete rows (empty intersection)")
    between = np.busday_count(kept[:-1], kept[1:]) - 1
    gaps = np.flatnonzero(between > MAX_WEEKDAY_GAP)
    if len(gaps):
        i = gaps[0]
        raise ValueError(
            f"{path}: gap of {between[i]} weekdays between {kept[i].item()} and "
            f"{kept[i + 1].item()}"
        )

    at, mat = slots[complete] + 2, vals[complete]
    weekend = np.flatnonzero(~np.is_busday(kept))
    if len(weekend):
        i = weekend[0]
        raise ValueError(f"{path}:{at[i]}: date {kept[i].item()} falls on a weekend")
    if unit == UNIT_PRICE:
        i, j = np.unravel_index(np.argmax(mat <= 0.0), mat.shape)
        if mat[i, j] <= 0.0:
            raise ValueError(f"{path}:{at[i]}: non-positive price {float(mat[i, j])!r} "
                             f"in column {symbols[j]}")
    # sorted, without duplicates and on weekdays
    cal = TradingCalendar._unchecked(kept)
    series = {
        sym: Series(cal, mat[:, j], unit) for j, sym in enumerate(symbols)
    }
    return IngestResult(AssetPanel(cal, series), tuple(days[~complete].tolist()))


def returns_from_prices(prices: Series) -> Series:
    """Simple returns p_t / p_{t-1} - 1 on the one-step suffix calendar."""
    if prices.unit != UNIT_PRICE:
        raise ValueError(f"need a price series, got unit {prices.unit!r}")
    if len(prices) < 2:
        raise ValueError("need at least two prices")
    vals = prices.values[1:] / prices.values[:-1] - 1.0
    return Series(prices.calendar.suffix(1), vals, UNIT_RETURN)


def prices_from_returns(returns: Series) -> Series:
    """Compound an index level path from simple returns; level dated at each
    return's date, starting from 100 one step before the calendar."""
    if returns.unit != UNIT_RETURN:
        raise ValueError(f"need a return series, got unit {returns.unit!r}")
    vals = 100.0 * np.cumprod(1.0 + returns.values)
    return Series(returns.calendar, vals, UNIT_PRICE)


def make_weekday_calendar(start: dt.date, n: int) -> TradingCalendar:
    """n consecutive weekdays beginning at the first weekday >= start."""
    if n <= 0:
        raise ValueError("calendar length must be positive")
    first = np.busday_offset(_as_day(start), 0, roll="forward")
    return TradingCalendar._unchecked(np.busday_offset(first, np.arange(n)))


@record
class SynthParams:
    """Two-state world: a persistent Markov chain drives the drift and
    volatility of the benchmark legs and of the long/short spread, plus the
    mean level of the fear gauge. Annualized drifts and vols; daily draws
    use drift/252 and vol/sqrt(252).

    The constructor checks values, not types: the CLI checks a config's
    `synth` section against these field defaults before it gets here.
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
        T = np.asarray(self.transition, dtype=np.float64)
        if not (T.shape == (2, 2) and np.all(T >= 0)
                and np.all(np.abs(T.sum(axis=1) - 1.0) <= 1e-12)):
            raise ValueError("transition must be 2x2 row-stochastic")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
