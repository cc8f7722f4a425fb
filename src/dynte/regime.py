"""Volatility-regime classification and a two-state Markov-switching check.

The primary signal is a trailing moving average of the implied-volatility
gauge mapped to {Low, Neutral, High} by two fixed thresholds; comparisons
are strict, so a signal sitting exactly on a threshold is Neutral. The
cross-check fits a two-state Gaussian hidden Markov model to weekly returns
by EM: Hamilton's forward filter for the likelihood, the Kim smoother for
state probabilities, Baum-Welch updates for means, variances, transition
matrix, and initial distribution. Exact M-steps keep the log-likelihood
non-decreasing across iterations.

Emissions are evaluated in log space less each week's larger one, and the
filter and the backward recursion are written as prefix products of 2x2
matrices evaluated by a log-depth scan (Hassan, Sarkka & Garcia-Fernandez,
"Temporal parallelization of inference in hidden Markov models", 2021), so
an EM pass is whole-array arithmetic rather than a loop over weeks. A trial
collapses, and is redrawn, only when a variance falls below the floor, a
state's smoothed weight is empty or the log-likelihood is not finite; a week
far in the tail of both states no longer collapses it by underflow.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .inference import spearman
from .rolling import WindowSpec, moving_average
from .timeseries import UNIT_LEVEL, UNIT_RETURN, Series, TradingCalendar

_VAR_FLOOR = 1e-12


class Regime(enum.IntEnum):
    LOW = -1
    NEUTRAL = 0
    HIGH = 1


@dataclass(frozen=True)
class RegimeThresholds:
    low: float
    high: float

    def __post_init__(self):
        if not 0.0 < self.low < self.high:
            raise ValueError(
                f"need 0 < low < high, got low={self.low} high={self.high}"
            )


def percentile_thresholds(
    smoothed: Series, p_low: float = 0.16, p_high: float = 0.76
) -> RegimeThresholds:
    """Thresholds at two linear-interpolation percentiles of the smoothed
    signal's sample distribution."""
    if not 0.0 < p_low < p_high < 1.0:
        raise ValueError("need 0 < p_low < p_high < 1")
    lo, hi = np.quantile(smoothed.values, [p_low, p_high])
    return RegimeThresholds(low=float(lo), high=float(hi))


@dataclass(frozen=True)
class RegimePath:
    """The smoothed signal, and the per-date label it gives under the thresholds."""

    calendar: TradingCalendar
    signal: np.ndarray
    thresholds: RegimeThresholds
    labels: np.ndarray = field(init=False)

    def __post_init__(self):
        # a copy, so freezing it leaves the caller's array writable
        signal = np.array(self.signal, dtype=np.float64)
        if len(signal) != len(self.calendar):
            raise ValueError("signal length must match the calendar")
        labels = np.where(
            signal < self.thresholds.low,
            int(Regime.LOW),
            np.where(signal > self.thresholds.high, int(Regime.HIGH), int(Regime.NEUTRAL)),
        ).astype(np.int8)
        labels.setflags(write=False)
        signal.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "signal", signal)

    def label_at(self, d) -> Regime:
        return Regime(int(self.labels[self.calendar.index(d)]))

    def fractions(self) -> dict[Regime, float]:
        return {r: float(np.mean(self.labels == int(r))) for r in Regime}


def classify(
    vix: Series, w: WindowSpec, thresholds: RegimeThresholds
) -> RegimePath:
    """Label each date from the trailing moving average of the gauge."""
    sig = moving_average(vix, w)
    return RegimePath(sig.calendar, sig.values, thresholds)


def weekly_returns(daily: Series) -> Series:
    """Compound daily simple returns within each ISO week; each value is
    dated at the week's last trading day. Partial edge weeks are kept."""
    if daily.unit != UNIT_RETURN:
        raise ValueError(f"need a return series, got unit {daily.unit!r}")
    dates = daily.calendar.dates
    vals = daily.values
    out_dates = []
    out_vals = []
    growth = 1.0
    cur = dates[0].isocalendar()[:2]
    for i, d in enumerate(dates):
        key = d.isocalendar()[:2]
        if key != cur:
            out_dates.append(dates[i - 1])
            out_vals.append(growth - 1.0)
            growth = 1.0
            cur = key
        growth *= 1.0 + vals[i]
    out_dates.append(dates[-1])
    out_vals.append(growth - 1.0)
    return Series(TradingCalendar(tuple(out_dates)), np.asarray(out_vals), UNIT_RETURN)


@dataclass(frozen=True)
class MSModel:
    """Two-state Gaussian HMM; state 0 is low-variance, state 1 high."""

    mu: tuple[float, float]
    var: tuple[float, float]
    transition: np.ndarray
    initial: tuple[float, float]
    loglik: float
    trace: tuple[float, ...]
    converged: bool
    n_iter: int

    def __post_init__(self):
        P = np.asarray(self.transition, dtype=np.float64)
        if P.shape != (2, 2) or np.any(P < -1e-12) or np.any(
            np.abs(P.sum(axis=1) - 1.0) > 1e-9
        ):
            raise ValueError("transition must be 2x2 row-stochastic")
        if self.var[1] < self.var[0]:
            raise ValueError("states must be ordered by variance (low first)")
        if min(self.var) <= 0.0:
            raise ValueError("variances must be positive")
        P = P.copy()
        P.setflags(write=False)
        object.__setattr__(self, "transition", P)


class _Collapse(Exception):
    """A trial hit a degenerate variance, an empty state or a non-finite
    log-likelihood."""


def _prefix_rows(m00, m01, m10, m11):
    """Row 0 of the inclusive prefix products M[0] @ M[1] @ ... @ M[t] of a
    sequence of 2x2 matrices stored as four arrays, each product scaled to
    entries summing to 1. M[0] must have equal rows, so every prefix product
    does too and its row 0 is the recursion's state up to scale.

    Hillis-Steele scan: after the pass with offset d, element t holds the
    product of elements max(0, t - 2d + 1)..t, so ceil(log2 T) passes of
    whole-array arithmetic replace a loop over t. Rescaling is exact up to
    rounding because the recursions are linear and only their direction is
    used."""
    c00, c01, c10, c11 = (np.array(m, dtype=np.float64) for m in (m00, m01, m10, m11))
    d = 1
    while d < len(c00):
        l00, l01, l10, l11 = c00[:-d], c01[:-d], c10[:-d], c11[:-d]
        r00, r01, r10, r11 = c00[d:], c01[d:], c10[d:], c11[d:]
        n00 = l00 * r00 + l01 * r10
        n01 = l00 * r01 + l01 * r11
        n10 = l10 * r00 + l11 * r10
        n11 = l10 * r01 + l11 * r11
        scale = 1.0 / (n00 + n01 + n10 + n11)
        c00[d:] = n00 * scale
        c01[d:] = n01 * scale
        c10[d:] = n10 * scale
        c11[d:] = n11 * scale
        d *= 2
    return c00, c01


def _filter_smoother(y, mu, var, P, pi):
    """Hamilton filter + smoother for two states.

    Returns (loglik, filt[T,2], smooth[T,2], pair[T-1,2,2]) where pair[t] is
    the smoothed probability of (s_t = i, s_{t+1} = j).

    Emissions are taken in log space less each week's larger one, so no week
    underflows both states. With e_t those scaled emissions, the filter's
    unnormalised state is alpha_t = alpha_{t-1} P diag(e_t) and the backward
    one is beta_t = P diag(e_{t+1}) beta_{t+1}; both are prefix products of
    2x2 matrices (the backward one transposed, in reverse time), evaluated by
    `_prefix_rows`. The log-likelihood sums each week's log predictive
    density. Raises _Collapse if it is not finite.
    """
    y = np.asarray(y, dtype=np.float64)
    T = len(y)
    p00, p01 = P[0, 0], P[0, 1]
    p10, p11 = P[1, 0], P[1, 1]
    le0 = -0.5 * math.log(2.0 * math.pi * var[0]) - (y - mu[0]) ** 2 * (0.5 / var[0])
    le1 = -0.5 * math.log(2.0 * math.pi * var[1]) - (y - mu[1]) ** 2 * (0.5 / var[1])
    top = np.maximum(le0, le1)
    e0 = np.exp(le0 - top)
    e1 = np.exp(le1 - top)

    # forward: M[0] has both rows pi * e_0, M[t] = P diag(e_t)
    m00, m01 = p00 * e0, p01 * e1
    m10, m11 = p10 * e0, p11 * e1
    m00[0] = m10[0] = pi[0] * e0[0]
    m01[0] = m11[0] = pi[1] * e1[0]
    # a week with zero likelihood zeroes every later product; the NaNs that
    # follow make ll non-finite
    with np.errstate(divide="ignore", invalid="ignore"):
        a0, a1 = _prefix_rows(m00, m01, m10, m11)
        total = a0 + a1
        filt = np.column_stack([a0 / total, a1 / total])
        pred0 = np.empty(T)
        pred1 = np.empty(T)
        pred0[0], pred1[0] = pi[0], pi[1]
        pred0[1:] = filt[:-1, 0] * p00 + filt[:-1, 1] * p10
        pred1[1:] = filt[:-1, 0] * p01 + filt[:-1, 1] * p11
        ll = float(np.sum(top) + np.sum(np.log(pred0 * e0 + pred1 * e1)))
    if not math.isfinite(ll):
        raise _Collapse

    # backward, in reverse time: M[0] has rows of ones, M[k] = (P diag(e_{T-k}))'
    g0, g1 = _prefix_rows(*(np.concatenate([[1.0], m[:0:-1]]) for m in (m00, m10, m01, m11)))
    # g[t] is beta_{T-1-t} up to scale; weight week t+1's emission by it
    g0 = g0[::-1][1:] * e0[1:]
    g1 = g1[::-1][1:] * e1[1:]

    f0, f1 = filt[:-1, 0], filt[:-1, 1]
    pair = np.empty((T - 1, 2, 2))
    pair[:, 0, 0] = f0 * p00 * g0
    pair[:, 0, 1] = f0 * p01 * g1
    pair[:, 1, 0] = f1 * p10 * g0
    pair[:, 1, 1] = f1 * p11 * g1
    pair /= pair.sum(axis=(1, 2))[:, None, None]

    smooth = np.empty((T, 2))
    smooth[:-1] = pair.sum(axis=2)
    smooth[-1] = filt[-1]
    return ll, filt, smooth, pair


def _em_trial(y, mu, var, P, pi, tol, max_iter):
    trace = []
    prev = -np.inf
    converged = False
    fitted = (mu, var, P, pi)
    for it in range(max_iter):
        if min(var) < _VAR_FLOOR:
            raise _Collapse
        ll, _filt, smooth, pair = _filter_smoother(y, mu, var, P, pi)
        trace.append(ll)
        # parameters that produced trace[-1]; the M-step below is only kept
        # if a later iteration evaluates it
        fitted = (mu, var, P, pi)
        if it > 0 and ll - prev < tol:
            converged = True
            break
        prev = ll

        w0 = smooth[:, 0].sum()
        w1 = smooth[:, 1].sum()
        if w0 <= 0.0 or w1 <= 0.0:
            raise _Collapse
        mu = (
            float(np.dot(smooth[:, 0], y) / w0),
            float(np.dot(smooth[:, 1], y) / w1),
        )
        var = (
            float(np.dot(smooth[:, 0], (y - mu[0]) ** 2) / w0),
            float(np.dot(smooth[:, 1], (y - mu[1]) ** 2) / w1),
        )
        denom = smooth[:-1].sum(axis=0)
        if np.any(denom <= 0.0):
            raise _Collapse
        num = pair.sum(axis=0)
        P = num / denom[:, None]
        P = P / P.sum(axis=1, keepdims=True)
        pi = (float(smooth[0, 0]), float(smooth[0, 1]))
    mu, var, P, pi = fitted
    return mu, var, P, pi, trace, converged


def fit_markov_switching(
    weekly: Series,
    restarts: int = 20,
    tol: float = 1e-8,
    max_iter: int = 1000,
    seed: int = 0,
) -> MSModel:
    """Best-of-restarts EM fit. Trials that collapse to a degenerate
    variance are discarded and redrawn; the best surviving trial by final
    log-likelihood wins. converged is False if that trial hit max_iter."""
    if weekly.unit != UNIT_RETURN:
        raise ValueError(f"need a return series, got unit {weekly.unit!r}")
    y = np.asarray(weekly.values, dtype=np.float64)
    if len(y) < 4:
        raise ValueError("need at least four observations")
    m0 = float(np.mean(y))
    v0 = float(np.var(y))
    if v0 == 0.0:
        raise ValueError("constant input; variance cannot be attributed to states")

    rng = np.random.default_rng(seed)
    best = None
    done = 0
    attempts = 0
    while done < restarts and attempts < 5 * restarts:
        attempts += 1
        sd = math.sqrt(v0)
        mu = (m0 + 0.5 * sd * rng.standard_normal(), m0 + 0.5 * sd * rng.standard_normal())
        var = (v0 * rng.uniform(0.2, 1.0), v0 * rng.uniform(1.0, 5.0))
        stay0 = rng.uniform(0.85, 0.99)
        stay1 = rng.uniform(0.85, 0.99)
        P = np.array([[stay0, 1.0 - stay0], [1.0 - stay1, stay1]])
        pi = (0.5, 0.5)
        try:
            out = _em_trial(y, mu, var, P, pi, tol, max_iter)
        except _Collapse:
            continue
        done += 1
        if best is None or out[4][-1] > best[4][-1]:
            best = out
    if best is None:
        raise ValueError("all EM restarts collapsed; no usable fit")

    mu, var, P, pi, trace, converged = best
    if var[1] < var[0]:
        mu = (mu[1], mu[0])
        var = (var[1], var[0])
        pi = (pi[1], pi[0])
        P = P[::-1, ::-1].copy()
    return MSModel(
        mu=mu,
        var=var,
        transition=P,
        initial=pi,
        loglik=trace[-1],
        trace=tuple(trace),
        converged=converged,
        n_iter=len(trace),
    )


def smoothed_high_prob(model: MSModel, weekly: Series) -> Series:
    """Smoothed probability of the high-variance state at each weekly date."""
    if weekly.unit != UNIT_RETURN:
        raise ValueError(f"need a return series, got unit {weekly.unit!r}")
    _ll, _filt, smooth, _pair = _filter_smoother(
        np.asarray(weekly.values),
        model.mu,
        model.var,
        np.asarray(model.transition),
        model.initial,
    )
    # backward recursion can overshoot 1 by a few ulp
    return Series(weekly.calendar, np.clip(smooth[:, 1], 0.0, 1.0), UNIT_LEVEL)


@dataclass(frozen=True)
class AgreementReport:
    spearman: float
    concordance: float


def signal_agreement(path: RegimePath, ms_prob: Series) -> AgreementReport:
    """Rank correlation between the smoothed gauge and the model's
    high-state probability at weekly dates, plus the share of weeks where
    High-label and probability > 0.5 agree."""
    sig = []
    hi = []
    for d in ms_prob.calendar.dates:
        i = path.calendar.index(d)
        sig.append(path.signal[i])
        hi.append(path.labels[i] == int(Regime.HIGH))
    rho = spearman(np.asarray(sig), ms_prob.values)
    agree = np.asarray(hi) == (ms_prob.values > 0.5)
    return AgreementReport(spearman=rho, concordance=float(np.mean(agree)))
