"""Closed-form active-risk budgeting model.

A manager holding active weight theta against a spread with annual alpha
and volatility sigma compounds at theta*alpha - 0.5*theta^2*sigma^2. The
unconstrained optimum is theta = alpha/sigma^2, where tracking error
equals the information ratio alpha/sigma and the compound advantage equals
half its square. A governance ceiling tau_bar clips tracking error at
min(alpha/sigma, tau_bar). With two states mixed with probability p of the
stressed state, letting the budget float adds the Jensen gap
0.5*p*(1-p)*(IR_H - IR_L)^2 over holding the average budget.
`proposition_suite` checks the five headline claims and returns one
PropositionCheck per claim.
"""

from __future__ import annotations

from ._record import record


@record
class RegimeParams:
    """Two-state spread parameters: (calm, stressed) alpha and sigma, and
    the probability p of the stressed state."""

    alpha: tuple[float, float]
    sigma: tuple[float, float]
    p: float

    def __post_init__(self):
        if len(self.alpha) != 2 or len(self.sigma) != 2:
            raise ValueError("alpha and sigma need one value per state")
        if min(self.sigma) <= 0.0:
            raise ValueError("sigma must be positive in both states")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")

    @property
    def ir(self) -> tuple[float, float]:
        return (self.alpha[0] / self.sigma[0], self.alpha[1] / self.sigma[1])


@record
class GovernanceParams:
    """Hard annualized tracking-error ceiling."""

    tau_bar: float

    def __post_init__(self):
        if self.tau_bar <= 0.0:
            raise ValueError("tau_bar must be positive")


def optimal_theta(alpha: float, sigma: float) -> float:
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return alpha / (sigma * sigma)


def optimal_te(alpha: float, sigma: float) -> float:
    """Tracking error at the unconstrained optimum: the information ratio."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return alpha / sigma


def constrained_te(alpha: float, sigma: float, tau_bar: float) -> float:
    if tau_bar <= 0.0:
        raise ValueError("tau_bar must be positive")
    return min(optimal_te(alpha, sigma), tau_bar)


def omega(alpha: float, sigma: float, tau_bar: float) -> float:
    """Marginal value of one unit of tracking-error budget headroom,
    alpha - tau_bar * sigma."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if tau_bar <= 0.0:
        raise ValueError("tau_bar must be positive")
    return alpha - tau_bar * sigma


def jensen_advantage(params: RegimeParams) -> float:
    """Compound-return gain from a state-contingent budget over the
    average budget: 0.5 * Var(IR) across the two-state mixture.

    The two-point variance is computed in factored form
    p*(1-p)*(IR_H - IR_L)^2, which is exactly zero on the p in {0,1} and
    equal-IR boundaries.
    """
    ir_l, ir_h = params.ir
    d = ir_h - ir_l
    return 0.5 * params.p * (1.0 - params.p) * d * d


@record
class PropositionCheck:
    prop: int
    status: str          # "pass" | "fail" | "precondition"
    boundary: bool       # True when the check sits exactly on a boundary case
    values: dict
    note: str


def proposition_suite(params: RegimeParams,
                      governance: GovernanceParams) -> tuple[PropositionCheck, ...]:
    """Check the model's five headline claims at the given parameters; one
    check per claim, in order.

    1. The unconstrained tracking error is larger in the stressed state.
    2. A floating budget disperses constrained TE across states; a cap that
       binds in both states collapses the dispersion to zero (boundary).
    3. The floating budget's compound advantage is non-negative, zero only
       on the p in {0,1} / equal-IR boundaries.
    4. Once the ceiling exceeds both unconstrained TEs, constrained and
       unconstrained solutions coincide (checked at the saturation point
       and above).
    5. The budget's marginal value is higher in the stressed state whenever
       alpha rises faster than tau_bar * sigma across states.

    Claims premised on IR ordering report status "precondition" when
    IR_H <= IR_L instead of being skipped.
    """
    a_l, a_h = params.alpha
    s_l, s_h = params.sigma
    tau = governance.tau_bar
    ir_l, ir_h = params.ir
    ordered = ir_h > ir_l
    checks = []

    te_l, te_h = optimal_te(a_l, s_l), optimal_te(a_h, s_h)
    if ordered:
        checks.append(PropositionCheck(
            1, "pass" if te_h > te_l else "fail", False,
            {"te_star_low": te_l, "te_star_high": te_h},
            "unconstrained TE tracks the information ratio",
        ))
    else:
        checks.append(PropositionCheck(
            1, "precondition", False,
            {"ir_low": ir_l, "ir_high": ir_h},
            "needs IR_high > IR_low",
        ))

    c_l = constrained_te(a_l, s_l, tau)
    c_h = constrained_te(a_h, s_h, tau)
    dispersion = c_h - c_l
    if ordered:
        binds_both = dispersion == 0.0
        checks.append(PropositionCheck(
            2, "pass" if dispersion >= 0.0 else "fail", binds_both,
            {"te_capped_low": c_l, "te_capped_high": c_h, "dispersion": dispersion},
            "cap binds both states; dispersion collapses to zero" if binds_both
            else "floating budget spreads constrained TE across states",
        ))
    else:
        checks.append(PropositionCheck(
            2, "precondition", False,
            {"te_capped_low": c_l, "te_capped_high": c_h},
            "needs IR_high > IR_low",
        ))

    adv = jensen_advantage(params)
    interior = 0.0 < params.p < 1.0 and ir_h != ir_l
    ok3 = adv > 0.0 if interior else adv == 0.0
    checks.append(PropositionCheck(
        3, "pass" if ok3 else "fail", not interior,
        {"advantage": adv, "p": params.p, "ir_low": ir_l, "ir_high": ir_h},
        "strictly positive off the boundaries" if interior
        else "exactly zero on a degenerate mixture or equal-IR boundary",
    ))

    sat = max(te_l, te_h)
    coincide = all(
        constrained_te(a_l, s_l, c) == te_l and constrained_te(a_h, s_h, c) == te_h
        for c in (sat, 2.0 * sat, 10.0 * sat)
    )
    checks.append(PropositionCheck(
        4, "pass" if coincide else "fail", tau >= sat,
        {"saturation_cap": sat, "tau_bar": tau},
        "given ceiling already saturates both states" if tau >= sat
        else "ceilings at and above the saturation point leave the optimum unconstrained",
    ))

    om_l = omega(a_l, s_l, tau)
    om_h = omega(a_h, s_h, tau)
    condition = (a_h - a_l) > tau * (s_h - s_l)
    if ordered:
        ok5 = (om_h > om_l) if condition else True
        checks.append(PropositionCheck(
            5, "pass" if ok5 else "fail", not condition,
            {"omega_low": om_l, "omega_high": om_h, "condition_holds": condition},
            "stressed-state budget headroom is worth more" if condition
            else "ordering condition not met at these parameters; claim vacuous",
        ))
    else:
        checks.append(PropositionCheck(
            5, "precondition", False,
            {"omega_low": om_l, "omega_high": om_h},
            "needs IR_high > IR_low",
        ))

    return tuple(checks)
