import datetime as dt
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dynte.metrics import (
    MetricsReport,
    annualized_vol,
    cagr,
    excess_returns,
    max_drawdown,
    sharpe,
    summarize,
    wealth_path,
)
from dynte.rolling import rolling_vol
from dynte.timeseries import (
    UNIT_LEVEL,
    UNIT_RETURN,
    Series,
    make_weekday_calendar,
)

MON = dt.date(2015, 1, 5)


def rser(values, start=MON):
    values = np.asarray(values, dtype=np.float64)
    return Series(make_weekday_calendar(start, len(values)), values, UNIT_RETURN)


def returns_for_prices(prices):
    p = np.asarray(prices, dtype=np.float64)
    return p[1:] / p[:-1] - 1.0


# ------------------------------------------------------------------- cagr


def test_cagr_doubling_in_two_years():
    r = np.full(504, 2.0 ** (1.0 / 504.0) - 1.0)
    assert_allclose(cagr(r), math.sqrt(2.0) - 1.0, rtol=1e-12)


def test_cagr_zeros():
    assert cagr(np.zeros(100)) == 0.0


def test_cagr_rejects_total_loss():
    with pytest.raises(ValueError, match="> -1"):
        cagr(np.array([0.01, -1.0, 0.01]))
    with pytest.raises(ValueError, match="finite"):
        cagr(np.array([0.01, np.nan]))
    with pytest.raises(ValueError, match="empty"):
        cagr(np.array([]))


def test_cagr_concatenation_composes():
    rng = np.random.default_rng(0)
    r = 0.01 * rng.standard_normal(504) + 0.0003
    n1 = 200
    c1, c2, c = cagr(r[:n1]), cagr(r[n1:]), cagr(r)
    n2 = len(r) - n1
    composed = ((1.0 + c1) ** (n1 / 252.0) * (1.0 + c2) ** (n2 / 252.0)) ** (
        252.0 / len(r)
    ) - 1.0
    assert_allclose(c, composed, rtol=1e-12)


# ----------------------------------------------------------- vol / sharpe


def test_vol_constant_is_zero_and_sharpe_errors():
    r = np.full(50, 0.00390625)  # dyadic, so demeaning is exact
    assert annualized_vol(r) == 0.0
    with pytest.raises(ValueError, match="zero volatility"):
        sharpe(r, 0.0)


def test_sharpe_direct_arithmetic():
    # two points with sample mean 0.0004 and sample std exactly 0.01
    d = 0.01 / math.sqrt(2.0)
    r = np.array([0.0004 + d, 0.0004 - d])
    assert_allclose(np.std(r, ddof=1), 0.01, rtol=1e-12)
    want = 0.0004 * 252.0 / (0.01 * math.sqrt(252.0))
    assert_allclose(sharpe(r, 0.0), want, rtol=1e-12)
    assert_allclose(sharpe(r, 0.0), 0.6350, atol=5e-5)


def test_sharpe_scalar_rf_is_annual():
    rng = np.random.default_rng(1)
    r = 0.01 * rng.standard_normal(300) + 0.0005
    # a scalar rf is an annual rate applied as rf/252 per day
    assert_allclose(sharpe(r, rf=0.0252), sharpe(r - 0.0001, 0.0), rtol=1e-10)


def test_sharpe_series_rf_is_annual():
    rng = np.random.default_rng(2)
    r = 0.01 * rng.standard_normal(200) + 0.0005
    # a daily rate of 0.0001 given as the annual rate it is on each date
    got = sharpe(r, rf=rser(np.full(200, 0.0252)))
    assert_allclose(got, sharpe(r - 0.0001, 0.0), rtol=1e-10)


def test_series_rf_and_scalar_rf_agree_bit_for_bit():
    rng = np.random.default_rng(4)
    r = 0.01 * rng.standard_normal(300) + 0.0005
    rf = rser(np.full(300, 0.0437))
    assert np.array_equal(excess_returns(r, rf), excess_returns(r, 0.0437))
    assert sharpe(r, rf) == sharpe(r, 0.0437)


def test_sharpe_excess_of_itself_errors():
    # dyadic returns, so 252 r / 252 is r exactly and the excess is 0
    r = np.random.default_rng(3).integers(-500, 500, 100) * 2.0**-16
    with pytest.raises(ValueError, match="zero volatility"):
        sharpe(r, rf=Series(make_weekday_calendar(MON, 100), 252.0 * r, UNIT_LEVEL))


def test_rf_length_mismatch():
    r = np.zeros(10) + 0.001
    with pytest.raises(ValueError, match="length"):
        sharpe(r, rf=rser(np.full(9, 0.0001)))


# ----------------------------------------------------------- max drawdown


def test_max_drawdown_textbook_path():
    r = returns_for_prices([100.0, 120.0, 60.0, 90.0])
    assert_allclose(max_drawdown(r), 0.50, rtol=1e-15)


def test_max_drawdown_monotone_gains():
    assert max_drawdown(np.full(30, 0.002)) == 0.0


def test_max_drawdown_counts_initial_wealth():
    # a first-day loss is a drawdown from the starting wealth of 1
    assert_allclose(max_drawdown(np.array([-0.10, 0.02])), 0.10, rtol=1e-15)


def test_max_drawdown_invariant_to_flat_prefix():
    rng = np.random.default_rng(4)
    r = 0.02 * rng.standard_normal(150)
    padded = np.concatenate([np.zeros(10), r])
    assert max_drawdown(padded) == max_drawdown(r)


def test_wealth_path_shape():
    w = wealth_path(np.array([0.10, -0.50, 0.50]))
    assert_allclose(w, [1.0, 1.1, 0.55, 0.825], rtol=1e-15)


# ------------------------------------------------------ tracking-error stats


def vix_like(values, start=MON):
    values = np.asarray(values, dtype=np.float64)
    return Series(make_weekday_calendar(start, len(values)), values, UNIT_LEVEL)


def te_stats(te, gauge):
    """summarize's TE columns for a realized-TE path, on a fixed return path."""
    return summarize(0.01 * np.random.default_rng(0).standard_normal(50), 0.0, te, gauge)


def test_te_stats_constant_te_has_no_cyclicality():
    te = vix_like(np.full(40, 0.02))
    gauge = vix_like(15.0 + np.arange(40.0))
    out = te_stats(te, gauge)
    assert out.te_level == pytest.approx(0.02)
    assert out.te_sigma == 0.0
    assert out.te_cyclicality is None


def test_te_stats_proportional_to_gauge():
    g = 15.0 + np.abs(np.sin(np.arange(50.0))) * 10.0
    te = vix_like(g * 0.001)
    out = te_stats(te, vix_like(g))
    assert_allclose(out.te_cyclicality, 1.0, atol=1e-12)


def test_te_stats_level_is_mean_of_realized_te():
    rng = np.random.default_rng(7)
    active = 0.002 * rng.standard_normal(200)
    te = rolling_vol(rser(active), 63)
    gauge = vix_like(15.0 + rng.random(200)).restrict(te.calendar)
    out = te_stats(te, gauge)
    assert out.te_level == pytest.approx(float(np.mean(te.values)), rel=1e-14)


def test_te_stats_gauge_restricted_to_te_calendar():
    rng = np.random.default_rng(8)
    te = vix_like(0.01 + 0.001 * rng.random(30), start=dt.date(2015, 2, 2))
    # the gauge covers a longer span; only overlapping dates are used
    gauge = vix_like(15.0 + rng.random(120), start=MON)
    out = te_stats(te, gauge)
    assert out.te_cyclicality is not None
    with pytest.raises(ValueError, match="at least two"):
        te_stats(vix_like([0.02]), gauge)


# ---------------------------------------------------------------- summary


def test_summarize_plain():
    rng = np.random.default_rng(9)
    r = 0.01 * rng.standard_normal(400) + 0.0004
    rep = summarize(r, 0.0)
    assert rep.cagr == pytest.approx(cagr(r))
    assert rep.vol == pytest.approx(annualized_vol(r))
    assert rep.max_drawdown >= 0.0
    assert rep.cagr_over_maxdd == pytest.approx(rep.cagr / rep.max_drawdown)
    assert rep.te_level is None and rep.te_cyclicality is None


def test_summarize_no_drawdown_leaves_ratio_unset():
    rep = summarize(np.tile([0.001, 0.002], 20), 0.0)
    assert rep.max_drawdown == 0.0
    assert rep.cagr_over_maxdd is None


def test_summarize_with_te_and_gauge():
    rng = np.random.default_rng(10)
    r = 0.01 * rng.standard_normal(250) + 0.0004
    active = 0.001 * rng.standard_normal(250)
    te = rolling_vol(rser(active), 63)
    gauge = vix_like(15.0 + rng.random(250))
    rep = summarize(r + active, 0.0, te=te, smoothed_vix=gauge)
    assert rep.te_level is not None
    assert rep.te_sigma is not None
    assert rep.te_cyclicality is not None


def test_summarize_te_without_gauge_names_it():
    te = vix_like(np.full(40, 0.02))
    with pytest.raises(ValueError, match="smoothed_vix"):
        summarize(0.01 * np.random.default_rng(11).standard_normal(50), 0.0, te=te)

