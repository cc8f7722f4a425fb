"""Volatility-regime classification and a two-state Markov-switching check.

The primary signal is a trailing moving average of the implied-volatility
gauge mapped to {Low, Neutral, High} by two fixed thresholds; comparisons
are strict, so a signal sitting exactly on a threshold is Neutral. The
cross-check fits a two-state Gaussian hidden Markov model to weekly returns
by EM: Hamilton's forward filter for the likelihood, the Kim smoother for
state probabilities, Baum-Welch updates for means, variances, transition
matrix, and initial distribution. Exact M-steps keep the log-likelihood
non-decreasing across iterations.

Emissions are evaluated in log space less each week's larger one. The
filter and the backward recursion are the prefix and suffix products of one
sequence of 2x2 matrices (Hassan, Sarkka & Garcia-Fernandez, "Temporal
parallelization of inference in hidden Markov models", 2021); one up-sweep
of a work-efficient pairwise scan (Blelloch, "Prefix sums and their
applications", 1990) feeds a down-sweep for each. An EM pass is about 3T
small products in whole-array arithmetic rather than a loop over weeks, and
its M-step reads four sums of pair probabilities over weeks per start.

The EM restarts run together, in batches stacked on a leading axis of that
arithmetic. A batch holds as many starts as keep a (starts x weeks) block
within a fixed number of values, `_BATCH_VALUES`, so a fit's memory does not
grow with the restart count. Starts are drawn and ranked in attempt order,
so the fit is the one a loop over restarts gives. A start collapses, and is
redrawn, only when a variance falls below the floor, a state's smoothed
weight is empty or the log-likelihood is not finite; it then leaves its
batch and the others go on. A week far in the tail of both states does not
collapse a start by underflow.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ._record import field, record
from .inference import linear_quantiles, spearman
from .rolling import WindowSpec, moving_average
from .timeseries import UNIT_LEVEL, UNIT_RETURN, Series, TradingCalendar

_VAR_FLOOR = 1e-12
# values in one (starts x weeks) block of a batch of EM starts: 128 KiB. The
# filter's arrays are two to four blocks, above glibc's default 128 KiB mmap
# threshold, and a full batch keeps about thirteen alive at once (near 1.6 MB),
# so a fresh process maps or faults them in again on most passes. That working
# set does not grow with the restart count.
_BATCH_VALUES = 16_384


class Regime(enum.IntEnum):
    LOW = -1
    NEUTRAL = 0
    HIGH = 1


@record(frozen=True)
class RegimeThresholds:
    low: float
    high: float

    def __post_init__(self):
        if not 0.0 < self.low < self.high:
            raise ValueError(
                f"need 0 < low < high, got low={self.low} high={self.high}"
            )


def percentile_thresholds(smoothed: Series, p_low: float, p_high: float) -> RegimeThresholds:
    """Thresholds at two linear-interpolation percentiles of the smoothed
    signal's sample distribution."""
    if not 0.0 < p_low < p_high < 1.0:
        raise ValueError("need 0 < p_low < p_high < 1")
    lo, hi = linear_quantiles(smoothed.values.copy(), [p_low, p_high])
    if lo == hi:
        raise ValueError(f"the thresholds fitted at percentiles {p_low} and {p_high} "
                         f"coincide, at {float(lo)}")
    return RegimeThresholds(low=float(lo), high=float(hi))


@record(frozen=True)
class RegimePath:
    """The smoothed signal, and the per-date label it gives under the
    thresholds, on the signal's calendar."""

    signal: Series
    thresholds: RegimeThresholds
    labels: np.ndarray = field(init=False)

    def __post_init__(self):
        v = self.signal.values
        labels = np.where(
            v < self.thresholds.low,
            int(Regime.LOW),
            np.where(v > self.thresholds.high, int(Regime.HIGH), int(Regime.NEUTRAL)),
        ).astype(np.int8)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def fractions(self) -> dict[Regime, float]:
        return {r: float(np.mean(self.labels == int(r))) for r in Regime}


def classify(
    vix: Series, w: WindowSpec, thresholds: RegimeThresholds
) -> RegimePath:
    """Label each date from the trailing moving average of the gauge."""
    return RegimePath(moving_average(vix, w), thresholds)


def weekly_returns(daily: Series) -> Series:
    """Compound daily simple returns within each Monday-to-Sunday week, the
    ISO week; each value is dated at the week's last trading day. Partial
    edge weeks are kept. Each week's product runs in date order, as a loop
    over the days would."""
    if daily.unit != UNIT_RETURN:
        raise ValueError(f"need a return series, got unit {daily.unit!r}")
    days = daily.calendar.days
    # day 0, 1970-01-01, was a Thursday, so day + 3 counts from a Monday
    week = (days.astype(np.int64) + 3) // 7
    starts = np.flatnonzero(np.diff(week, prepend=week[0] - 1))
    ends = np.append(starts[1:], len(days)) - 1
    growth = np.multiply.reduceat(1.0 + daily.values, starts)
    return Series(TradingCalendar._unchecked(days[ends]), growth - 1.0, UNIT_RETURN)


@record(frozen=True)
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


def _messages(m):
    """Row 0 of each prefix product M[0] @ ... @ M[t] of a sequence of 2x2
    matrices, stacked as m[i, j, ..., t] = M[t][i, j] (axes between the
    first two and the last are a batch), as rows[j, ..., t], and each suffix
    product M[t+1] @ ... @ M[T-1] @ 1 as cols[i, ..., t], each up to a
    positive scale. M[0] must have equal rows, so every prefix product does
    too and its row 0 is the forward recursion's state up to scale.

    Work-efficient pairwise scan (Blelloch 1990): one up-sweep multiplies
    adjacent pairs level by level, each product scaled to entries summing
    to 1 and an odd last matrix carried up as it is, until one is left. Two
    down-sweeps over it carry only vectors. Row 0 of A @ B is (row 0 of A)
    @ B, so a level's prefix at odd index 2i+1 is pair i's from the level
    above and the one at even index 2i > 0 is the prefix at 2i-1 times its
    matrix. A @ B @ v is A @ (B @ v), so the suffix from even index 2i is
    pair i's from the level above, the one from odd index 2i+1 is its matrix
    times the suffix from 2i+2, and the one past the end is 1. That is
    about 3T products in 3 log2(T) passes of whole-array arithmetic.
    Rescaling is exact up to rounding because the recursions are linear and
    only their direction is used."""
    levels = [m]
    while levels[-1].shape[-1] > 1:
        c = levels[-1]
        n = c.shape[-1] // 2 * 2
        up = np.empty(c.shape[:-1] + (c.shape[-1] - n // 2,))
        prod = np.einsum("ik...,kj...->ij...", c[..., 0:n:2], c[..., 1:n:2],
                         out=up[..., :n // 2])
        prod /= prod.sum(axis=(0, 1))
        up[..., n // 2:] = c[..., n:]
        levels.append(up)
    # the suffix from index 0 is never read, so it may start as anything
    row, col = levels.pop()[0], np.ones(m.shape[1:-1] + (2,))
    while levels:
        c = levels.pop()
        n = c.shape[-1]
        h, k = n // 2, (n - 1) // 2
        nxt = np.empty(c.shape[1:])
        nxt[..., 0] = c[0, ..., 0]
        nxt[..., 1::2] = row[..., :h]
        step = np.einsum("i...,ij...->j...", row[..., :k], c[..., 2::2], out=nxt[..., 2::2])
        step /= step.sum(axis=0)
        row = nxt

        nxt = np.empty(c.shape[1:-1] + (n + 1,))
        nxt[..., 0:n:2] = col[..., :n - h]
        nxt[..., n] = 1.0
        step = np.einsum("ij...,j...->i...", c[..., 1::2], col[..., 1:h + 1],
                         out=nxt[..., 1:n:2])
        step /= step.sum(axis=0)
        col = nxt
    return row, col[..., 1:]


def _filter_smoother(y, mu, var, P, pi):
    """Hamilton filter + smoother for two states.

    mu, var and pi have shape (..., 2) and P (..., 2, 2); leading axes are a
    batch of parameter sets, each filtered independently. Returns (loglik[...],
    filt[..., T, 2], smooth[..., T, 2], pairs[..., 2, 2]) where pairs[i, j]
    sums over weeks t < T-1 the smoothed probability of (s_t = i,
    s_{t+1} = j). loglik is not finite where some week has zero likelihood;
    the probabilities are then junk.

    Emissions are taken in log space less each week's larger one, so no week
    underflows both states. With e_t those scaled emissions, the filter's
    unnormalised state is alpha_t = alpha_{t-1} P diag(e_t) and the backward
    one is beta_t = P diag(e_{t+1}) beta_{t+1}: prefix and suffix products
    of the same 2x2 matrices, which `_messages` takes from one up-sweep.
    With g_t = e_{t+1} beta_{t+1}, week t's pair probability is
    filt_i(t) P_ij g_j(t) / norm_t, so the pair sums are P_ij times one sum
    over weeks of filt_i(t) g_j(t) / norm_t, reduced per parameter set. The
    log-likelihood sums each week's log predictive density. Internally the
    state axis comes first, so the two states are two contiguous blocks.
    """
    y = np.asarray(y, dtype=np.float64)
    P_in = np.asarray(P, dtype=np.float64)
    # state axes first, and a trailing length-1 axis to broadcast over weeks
    mu, var, pi = (np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)[..., None]
                   for a in (mu, var, pi))
    P = np.moveaxis(P_in, (-2, -1), (0, 1))[..., None]
    # a variance at or below zero, or a week with zero likelihood, gives NaNs
    # that make ll non-finite
    with np.errstate(divide="ignore", invalid="ignore"):
        # whole-batch arrays are updated in place and dropped once used, so
        # few are alive at once
        e = y - mu
        np.square(e, out=e)
        e *= 0.5 / var
        np.subtract(-0.5 * np.log(2.0 * np.pi * var), e, out=e)
        top = e.max(axis=0)
        e -= top
        np.exp(e, out=e)
        ll = top.sum(axis=-1)
        del top

        # M[0] has both rows pi * e_0, M[t] = P diag(e_t)
        m = P * e
        m[0, ..., 0] = m[1, ..., 0] = pi[..., 0] * e[..., 0]
        filt, beta = _messages(m)
        del m
        filt /= filt.sum(axis=0)
        pred = np.empty_like(filt)
        pred[..., :1] = pi
        np.einsum("i...,ij...->j...", filt[..., :-1], P, out=pred[..., 1:])
        ll += np.log(np.einsum("j...,j...->...", pred, e)).sum(axis=-1)
        del pred

        g = beta[..., 1:]
        g *= e[..., 1:]
        del e
        # beta_t = P g_t, so smooth_t is filt_t * (P g_t) / norm_t
        smooth = filt.copy()
        smooth[..., :-1] *= np.einsum("ij...,j...->i...", P, g)
        norm = smooth[..., :-1].sum(axis=0)
        smooth[..., :-1] /= norm
        g /= norm
        # einsum sums each parameter set's own weeks in a fixed order, so a
        # fit does not depend on how its starts are batched
        pairs = np.einsum("i...t,j...t->...ij", filt[..., :-1], g)
        pairs *= P_in
    return ll, np.moveaxis(filt, 0, -1), np.moveaxis(smooth, 0, -1), pairs


def _em_trial(y, mu, var, P, pi, tol, max_iter):
    """EM from each start on the leading axis of mu, var, pi (R, 2) and
    P (R, 2, 2), all in lock step. A start leaves the batch when it
    converges or collapses (a variance under the floor, an empty state or a
    non-finite log-likelihood); the others go on. Returns the fitted
    parameters stacked the same way, each start's log-likelihood trace (None
    where it collapsed) and a converged flag per start. A start's fitted
    parameters are the ones that produced its trace's last entry."""
    y = np.asarray(y, dtype=np.float64)
    fitted = [np.array(a, dtype=np.float64) for a in (mu, var, P, pi)]
    mu, var, P, pi = fitted
    traces = [[] for _ in range(len(mu))]
    converged = np.zeros(len(mu), dtype=bool)
    live = np.arange(len(mu))
    prev = np.full(len(mu), -np.inf)
    for _ in range(max_iter):
        ll, filt, smooth, pairs = _filter_smoother(y, mu, var, P, pi)
        ok = (var.min(axis=1) >= _VAR_FLOOR) & np.isfinite(ll)
        for dst, src in zip(fitted, (mu, var, P, pi)):
            dst[live] = src
        for i, v in zip(live[ok], ll[ok].tolist()):
            traces[i].append(v)
        done = ok & (ll - prev < tol)
        converged[live[done]] = True

        # the M-step, in the filter's states-first layout, sums each start's
        # weeks with einsum; a start whose smoothed weights leave a state
        # empty collapses
        smooth = np.moveaxis(smooth, -1, 0)
        w = smooth.sum(axis=-1).T
        denom = smooth[..., :-1].sum(axis=-1).T
        keep = ok & ~done & ~np.any(w <= 0.0, axis=1) & ~np.any(denom <= 0.0, axis=1)
        for i in live[~keep & ~done]:
            traces[i] = None
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = np.einsum("krt,t->rk", smooth, y) / w
            dev = y - mu.T[..., None]
            np.square(dev, out=dev)
            var = np.einsum("krt,krt->rk", smooth, dev) / w
            P = pairs / denom[:, :, None]
            P /= P.sum(axis=2, keepdims=True)
        pi = smooth[..., 0].T
        live, prev = live[keep], ll[keep]
        mu, var, P, pi = mu[keep], var[keep], P[keep], pi[keep]
        del filt, smooth, pairs, dev  # freed before the next pass allocates its own
        if not len(live):
            break
    return (*fitted, traces, converged)


def fit_markov_switching(
    weekly: Series,
    restarts: int,
    seed: int,
    tol: float = 1e-8,
    max_iter: int = 1000,
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
    sd = math.sqrt(v0)
    per_batch = max(1, _BATCH_VALUES // len(y))
    best = None
    done = 0
    attempts = 0
    # attempts run in batches no larger than the restarts still missing, so
    # the same attempts run, with the same draws, as one at a time
    while done < restarts and attempts < 5 * restarts:
        n = min(per_batch, restarts - done, 5 * restarts - attempts)
        attempts += n
        draws = np.array([(m0 + 0.5 * sd * rng.standard_normal(),
                           m0 + 0.5 * sd * rng.standard_normal(),
                           v0 * rng.uniform(0.2, 1.0),
                           v0 * rng.uniform(1.0, 5.0),
                           rng.uniform(0.85, 0.99),
                           rng.uniform(0.85, 0.99)) for _ in range(n)])
        stay0, stay1 = draws[:, 4], draws[:, 5]
        P = np.stack([stay0, 1.0 - stay0, 1.0 - stay1, stay1], axis=1).reshape(n, 2, 2)
        out = _em_trial(y, draws[:, 0:2], draws[:, 2:4], P, np.full((n, 2), 0.5), tol, max_iter)
        for i, trace in enumerate(out[4]):
            if trace is None:
                continue
            done += 1
            # the first of equal log-likelihoods wins
            if best is None or trace[-1] > best[4][-1]:
                best = tuple(x[i] for x in out)
    if best is None:
        raise ValueError("all EM restarts collapsed; no usable fit")

    mu, var, P, pi, trace, converged = best
    if var[1] < var[0]:
        mu, var, pi, P = mu[::-1], var[::-1], pi[::-1], P[::-1, ::-1]
    return MSModel(
        mu=tuple(mu.tolist()),
        var=tuple(var.tolist()),
        transition=P,
        initial=tuple(pi.tolist()),
        loglik=trace[-1],
        trace=tuple(trace),
        converged=bool(converged),
        n_iter=len(trace),
    )


def smoothed_high_prob(model: MSModel, weekly: Series) -> Series:
    """Smoothed probability of the high-variance state at each weekly date."""
    if weekly.unit != UNIT_RETURN:
        raise ValueError(f"need a return series, got unit {weekly.unit!r}")
    ll, _filt, smooth, _pairs = _filter_smoother(
        weekly.values, model.mu, model.var, model.transition, model.initial
    )
    if not math.isfinite(ll):
        raise ValueError("the model gives some week zero likelihood")
    # backward recursion can overshoot 1 by a few ulp
    return Series(weekly.calendar, np.clip(smooth[:, 1], 0.0, 1.0), UNIT_LEVEL)


@record(frozen=True)
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
        i = path.signal.calendar.index(d)
        sig.append(path.signal.values[i])
        hi.append(path.labels[i] == int(Regime.HIGH))
    rho = spearman(np.asarray(sig), ms_prob.values)
    agree = np.asarray(hi) == (ms_prob.values > 0.5)
    return AgreementReport(spearman=rho, concordance=float(np.mean(agree)))
