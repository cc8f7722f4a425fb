import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dynte.model import (
    GovernanceParams,
    RegimeParams,
    constrained_te,
    jensen_advantage,
    omega,
    optimal_te,
    optimal_theta,
    proposition_suite,
)
from oracles import brute_force_optimum, compound_active_return, make_theta_grid

PAPERISH = RegimeParams(alpha=(0.02, 0.10), sigma=(0.10, 0.25), p=0.3)
GOV = GovernanceParams(tau_bar=0.05)


# ------------------------------------------------------------ closed forms


def test_compound_return_basics():
    assert compound_active_return(0.0, 0.04, 0.2) == 0.0
    assert_allclose(compound_active_return(1.0, 0.04, 0.2), 0.02, rtol=1e-15)
    # quadratic symmetry: overshooting the optimum by 2x lands back at zero
    theta = 2.0 * optimal_theta(0.04, 0.2)
    assert_allclose(compound_active_return(theta, 0.04, 0.2), 0.0, atol=1e-15)


def test_optimal_theta_and_te():
    assert optimal_theta(0.04, 0.2) == pytest.approx(1.0, rel=1e-15)
    assert optimal_te(0.04, 0.2) == pytest.approx(0.2, rel=1e-15)
    assert optimal_theta(0.0, 0.2) == 0.0
    assert optimal_te(0.0, 0.2) == 0.0
    with pytest.raises(ValueError, match="sigma"):
        optimal_theta(0.04, 0.0)
    with pytest.raises(ValueError, match="sigma"):
        optimal_te(0.04, -0.1)


def test_doubling_sigma_scaling():
    a, s = 0.06, 0.15
    assert_allclose(optimal_theta(a, 2 * s), optimal_theta(a, s) / 4.0, rtol=1e-14)
    assert_allclose(optimal_te(a, 2 * s), optimal_te(a, s) / 2.0, rtol=1e-14)


def test_value_at_optimum_is_half_squared_ir():
    for a, s in [(0.02, 0.10), (0.10, 0.25), (0.05, 0.08)]:
        got = compound_active_return(optimal_theta(a, s), a, s)
        assert_allclose(got, 0.5 * (a / s) ** 2, rtol=1e-12)


def test_constrained_te_min_rule():
    assert constrained_te(0.04, 0.2, 0.05) == 0.05
    assert constrained_te(0.001, 0.1, 0.05) == pytest.approx(0.01, rel=1e-15)
    assert constrained_te(0.01, 0.2, 0.05) == constrained_te(0.01, 0.2, 10.0)
    te = optimal_te(0.04, 0.2)
    assert constrained_te(0.04, 0.2, te) == te
    with pytest.raises(ValueError, match="tau_bar"):
        constrained_te(0.04, 0.2, 0.0)


def test_omega_examples():
    assert_allclose(omega(0.10, 0.25, 0.02), 0.095, rtol=1e-15)
    assert omega(0.05, 0.25, 0.2) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        omega(0.10, 0.0, 0.02)


def test_omega_ordering_identity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a_l, a_h = sorted(rng.uniform(0.0, 0.2, size=2))
        s_l, s_h = sorted(rng.uniform(0.05, 0.4, size=2))
        tau = rng.uniform(0.005, 0.1)
        if (a_h - a_l) > tau * (s_h - s_l):
            assert omega(a_h, s_h, tau) > omega(a_l, s_l, tau)


# --------------------------------------------------------- jensen advantage


def test_jensen_hand_value():
    # p=0.5, IR_H=1, IR_L=0: 0.5 * 0.25 * 1 = 0.125
    params = RegimeParams(alpha=(0.0, 0.2), sigma=(0.1, 0.2), p=0.5)
    assert params.ir == (0.0, 1.0)
    assert jensen_advantage(params) == 0.125


def test_jensen_boundary_zeros_exact():
    equal_ir = RegimeParams(alpha=(0.02, 0.04), sigma=(0.1, 0.2), p=0.4)
    assert equal_ir.ir[0] == equal_ir.ir[1]
    assert jensen_advantage(equal_ir) == 0.0
    for p in (0.0, 1.0):
        assert jensen_advantage(RegimeParams((0.02, 0.10), (0.1, 0.25), p)) == 0.0


@given(
    a_l=st.floats(0.0, 0.2),
    a_h=st.floats(0.0, 0.3),
    s_l=st.floats(0.01, 0.5),
    s_h=st.floats(0.01, 0.5),
    p=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_jensen_never_negative(a_l, a_h, s_l, s_h, p):
    params = RegimeParams((a_l, a_h), (s_l, s_h), p)
    adv = jensen_advantage(params)
    assert adv >= 0.0
    if params.ir[0] == params.ir[1] or p in (0.0, 1.0):
        assert adv == 0.0


def test_regime_params_validation():
    with pytest.raises(ValueError, match="sigma"):
        RegimeParams((0.02, 0.1), (0.0, 0.2), 0.5)
    with pytest.raises(ValueError, match="p must"):
        RegimeParams((0.02, 0.1), (0.1, 0.2), 1.5)
    with pytest.raises(ValueError, match="tau_bar"):
        GovernanceParams(0.0)


# ------------------------------------------------------------- brute force


def test_grid_argmax_matches_closed_form():
    grid = make_theta_grid(0.04, 0.2, step=1e-4)
    got = brute_force_optimum(0.04, 0.2, grid)
    assert abs(got - 1.0) <= 1e-4
    assert grid[0] == 0.0
    assert grid[-1] >= 2.0 * optimal_theta(0.04, 0.2) - 1e-12


def test_grid_argmax_zero_alpha():
    grid = np.linspace(0.0, 1.0, 1001)
    assert brute_force_optimum(0.0, 0.2, grid) == 0.0


def test_grid_te_consistency():
    a, s = 0.06, 0.18
    grid = make_theta_grid(a, s, step=1e-4)
    theta_hat = brute_force_optimum(a, s, grid)
    step = grid[1] - grid[0]
    assert abs(theta_hat * s * s - optimal_te(a, s) * s) <= step * s * s + 1e-12


def test_grid_validation():
    with pytest.raises(ValueError, match="non-empty"):
        brute_force_optimum(0.04, 0.2, np.array([]))
    with pytest.raises(ValueError, match="alpha"):
        make_theta_grid(0.0, 0.2)
    with pytest.raises(ValueError, match="step"):
        make_theta_grid(0.04, 0.2, step=0.0)


def test_grid_sampled_draws():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.uniform(0.005, 0.15)
        s = rng.uniform(0.05, 0.4)
        grid = make_theta_grid(a, s, step=1e-4)
        step = grid[1] - grid[0]
        assert step <= 1e-4 + 1e-15
        got = brute_force_optimum(a, s, grid)
        assert abs(got - optimal_theta(a, s)) <= step + 1e-12


# ------------------------------------------------------- proposition suite


def test_suite_paperish_parameters_all_pass():
    checks = proposition_suite(PAPERISH, GOV)
    assert isinstance(checks, tuple)
    assert [c.prop for c in checks] == [1, 2, 3, 4, 5]
    assert all(c.status == "pass" for c in checks)
    by = {c.prop: c for c in checks}
    # tau 0.05 binds only the stressed state here (TE* = 0.2 vs 0.4)
    assert by[2].values["te_capped_low"] == pytest.approx(0.05)
    assert by[2].values["te_capped_high"] == pytest.approx(0.05)
    assert by[2].boundary  # the cap binds both states: zero dispersion
    assert by[3].values["advantage"] > 0.0
    assert not by[3].boundary


def test_suite_equal_ir_boundary():
    params = RegimeParams(alpha=(0.02, 0.04), sigma=(0.10, 0.20), p=0.4)
    checks = proposition_suite(params, GOV)
    by = {c.prop: c for c in checks}
    assert by[3].status == "pass"
    assert by[3].boundary
    assert by[3].values["advantage"] == 0.0
    # the IR-ordering claims cannot be evaluated
    assert by[1].status == "precondition"
    assert by[2].status == "precondition"
    assert by[5].status == "precondition"
    assert not all(c.status == "pass" for c in checks)


def test_suite_loose_cap_saturates():
    by = {c.prop: c for c in proposition_suite(PAPERISH, GovernanceParams(tau_bar=10.0))}
    assert by[4].status == "pass"
    assert by[4].boundary  # tau already past the saturation point
    assert by[2].values["te_capped_low"] == pytest.approx(PAPERISH.ir[0])
    assert by[2].values["te_capped_high"] == pytest.approx(PAPERISH.ir[1])


def test_suite_vacuous_omega_condition():
    # alpha gap smaller than tau * sigma gap: Prop 5's premise fails
    params = RegimeParams(alpha=(0.001, 0.005), sigma=(0.10, 0.40), p=0.3)
    assert params.ir[1] > params.ir[0]
    by = {c.prop: c for c in proposition_suite(params, GovernanceParams(tau_bar=0.05))}
    assert by[5].status == "pass"
    assert by[5].boundary
    assert not by[5].values["condition_holds"]

