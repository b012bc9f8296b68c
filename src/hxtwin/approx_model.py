"""One-step-solvable approximate model of the counterflow heat exchanger.

Replaces the reference model's iterative root search by (a) freezing the
fluid behavior into mean specific heats taken from a previous time step
and (b) replacing the logarithmic mean by a beta-weighted blend of the
geometric and arithmetic means.  Both side equations then admit a closed
form root G, and the steady state collapses to explicit formulas.

The hot and cold sides share one universal residual through a term
substitution; the same closed form solves both.  approx_side is one
side's whole step on floats: it selects beta, takes the closed-form root
and returns the weighted mean that gives the side's heat rate.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum

from .correlations import serial_conductance
from .fluids import StreamConfig
from .means import DomainError, arith_mean, geom_mean, log_mean
from .reference_model import (
    Conductances,
    InletConditions,
    OutletTemps,
    WallState,
    steady_walls,
)

__all__ = [
    "BetaBranch",
    "BetaSelection",
    "CpParams",
    "ApproxEvaluation",
    "g_closed_form",
    "g_partials",
    "beta_lm_value",
    "approx_side",
    "approx_output",
    "steady_outlets",
    "steady_terms",
    "update_cp_params",
    "approx_steady_selfconsistent",
    "approx_sides",
    "evaluate_approx",
    "partial_rows",
]

# Steady differences closer than this (relative) use the analytic 2/3
# limit of beta_LM instead of the 0/0-prone quotient.
_BETA_LM_EQUAL_SWITCH = 1e-6
# Capacity ratios closer to 1 than this (relative) take the balanced
# branch of the steady outlet formula.
_BALANCED_SWITCH = 1e-9
# Exponent clamp keeping exp() finite; the surrounding formula converges
# to the correct limit for huge arguments.
_EXP_CLAMP = 700.0


class BetaBranch(Enum):
    BETA_LM = "betaLM"
    BETA_STAR2 = "betaStar2"
    ZERO = "zero"


@dataclass(frozen=True, slots=True)
class BetaSelection:
    beta: float
    branch: BetaBranch
    feasible_set_empty: bool


@dataclass(frozen=True, slots=True)
class CpParams:
    """Mean specific heats: transient (theta3/theta4) and steady
    (theta5/theta6), hot/cold respectively, in J/(kg K)."""

    theta3: float
    theta4: float
    theta5: float
    theta6: float

    def __post_init__(self):
        if min(self.theta3, self.theta4, self.theta5, self.theta6) <= 0.0:
            raise ValueError("mean specific heats must be positive")


def g_closed_form(dT_I: float, dT_w: float, aA: float, C_p: float, beta: float) -> float:
    """Closed-form root G(dT_I, dT_w, aA, C_p, beta) in dT_II of the universal
    residual C_p*(dT_I - dT_II + dT_w) - aA*WM(dT_I, dT_II), WM weighted by beta.

    For beta = 0 this reduces to the linear arithmetic-mean solution,
    valid for any dT_I; for beta > 0 the caller must have verified
    (dT_I, beta) feasibility, as approx_side's beta rule does.

    The root is the square of the positive root of a quadratic in
    y = sqrt(dT_II).  Evaluating y through the rationalized quadratic
    formula is algebraically identical to the xi1..xi4 expression but
    stays exact at the feasibility edge, where the xi form cancels
    catastrophically just as the geometric-mean term is most sensitive.
    """
    xi1 = aA * (1.0 - beta) + 2.0 * C_p
    if beta == 0.0:
        return dT_I + dT_w - aA * (2.0 * dT_I + dT_w) / xi1
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    if dT_I <= 0.0:
        raise DomainError(f"beta > 0 requires dT_I > 0, got dT_I={dT_I}")
    # 0.5*xi1 * y^2 + aA*beta*sqrt(dT_I) * y + c0 = 0, feasible iff c0 <= 0
    b_lin = aA * beta * math.sqrt(dT_I)
    c0 = 0.5 * aA * (1.0 - beta) * dT_I - C_p * (dT_I + dT_w)
    if c0 > 0.0:
        # Tolerate roundoff at the feasible-set boundary only; the rounding
        # of 1 - beta enters c0 times 0.5*aA*dT_I, whatever 1 - beta is.
        scale = 0.5 * aA * dT_I + C_p * abs(dT_I + dT_w)
        if c0 > 1e-9 * max(scale, 1e-300):
            raise DomainError(f"beta={beta} outside feasible set")
        c0 = 0.0
    y = -2.0 * c0 / (b_lin + math.sqrt(b_lin * b_lin - 2.0 * xi1 * c0))
    return y * y


def g_partials(
    dT_I: float, dT_II: float, aA: float, C_p: float, beta: BetaSelection
) -> tuple[float, float, float, float, float]:
    """Partials of the root dT_II = G with the branch of ``beta`` held:
    (dG/d dT_I, dG/d dT_w, dG/d aA, dG/d C_p, dG/d beta_LM).

    The universal residual R vanishes at its root, so dG/dq = -R_q / R_G
    with
    R_G = -C_p - aA*(beta*sqrt(dT_I/G)/2 + (1-beta)/2),
    R_dT_I = C_p - aA*(beta*sqrt(G/dT_I)/2 + (1-beta)/2), R_dT_w = C_p,
    R_aA = -WM, R_C_p = dT_I - G + dT_w = aA*WM/C_p (at the root) and
    R_beta = -aA*(GM - AM) on the means of (dT_I, G).  beta follows
    beta_LM on the beta_LM branch only; elsewhere the beta_LM partial is
    0.  On the beta*_2 branch G is identically 0, and a root G = 0 with
    beta > 0 has R_G = -inf; both give zero partials.
    """
    b = beta.beta
    if beta.branch is BetaBranch.BETA_STAR2 or (b > 0.0 and dT_II <= 0.0):
        return 0.0, 0.0, 0.0, 0.0, 0.0
    am = 0.5 * (dT_I + dT_II)
    am_part = 0.5 * aA * (1.0 - b)
    if b == 0.0:
        R_G = -C_p - am_part
        R_I = C_p - am_part
        wm = am
        R_b = 0.0
    else:  # beta > 0 off the beta*_2 branch: the beta_LM branch
        ratio = math.sqrt(dT_II / dT_I)
        R_G = -C_p - 0.5 * aA * b / ratio - am_part
        R_I = C_p - 0.5 * aA * b * ratio - am_part
        gm = math.sqrt(dT_I * dT_II)
        wm = b * gm + (1.0 - b) * am
        R_b = -aA * (gm - am)
    return -R_I / R_G, -C_p / R_G, wm / R_G, -aA * wm / (C_p * R_G), -R_b / R_G


def beta_lm_value(steady_dT_Is: float, steady_dT_IIs: float) -> float:
    """beta_LM = (AM - LM)/(AM - GM) on the steady differences.

    Returns the analytic limit 2/3 for nearly equal (or degenerate
    nonpositive) steady differences, clamped into (0, 1].
    """
    s1, s2 = steady_dT_Is, steady_dT_IIs
    if s1 <= 0.0 or s2 <= 0.0 or abs(s1 / s2 - 1.0) < _BETA_LM_EQUAL_SWITCH:
        return 2.0 / 3.0
    am = arith_mean(s1, s2)
    value = (am - log_mean(s1, s2)) / (am - geom_mean(s1, s2))
    return min(max(value, 1e-12), 1.0)


# The two outcomes without a beta, shared since BetaSelection is frozen.
_BETA_ZERO = BetaSelection(0.0, BetaBranch.ZERO, False)
_BETA_EMPTY = BetaSelection(0.0, BetaBranch.ZERO, True)


def approx_side(
    dT_I: float, dT_w: float, aA: float, C_p: float, lm: BetaSelection
) -> tuple[BetaSelection, float, float]:
    """One side of the approximate model: (selection, G, WM), the beta
    chosen by the published rule, the root G = g_closed_form at it, and
    the weighted mean WM = beta*GM + (1 - beta)*AM of (dT_I, G).

    If dT_I > 0 and the feasible set B is nonempty, beta is the member of
    {beta_LM, beta*_1, beta*_2} inside B nearest to beta_LM; otherwise
    beta = 0 (arithmetic-mean fallback).  B is the part of (0, 1] between
    beta*_2 <= beta*_1, the roots of the quadratic in beta that keeps the
    closed-form radicand and root position nonnegative.

    Its discriminant is the perfect square (2*aA*C_p*(dT_w + 2*dT_I))^2,
    so the roots are 1 + 2*C_p/aA and 1 - 2*slack/(dT_I*aA), with
    slack = C_p*(dT_I + dT_w).  slack < 0 puts both above 1 (B empty);
    otherwise beta*_1 > 1 is never a member, and B is where
    0.5*aA*(1 - beta)*dT_I <= slack, the closed form's c0 <= 0.  The rule
    is then: beta_LM if it passes, else beta*_2 if positive, else empty.

    ``lm`` is the beta_LM selection of the steady differences (from
    steady_terms), made once per steady state and returned whenever
    beta_LM is feasible.
    """
    if dT_I <= 0.0:
        sel = _BETA_ZERO
    else:
        slack = C_p * (dT_I + dT_w)
        if slack < 0.0:
            sel = _BETA_EMPTY
        # the product g_closed_form forms for c0, so a beta passing here
        # passes there
        elif lm.beta <= 1.0 and 0.5 * aA * (1.0 - lm.beta) * dT_I <= slack:
            sel = lm
        else:
            b_star2 = 1.0 - 2.0 * slack / (dT_I * aA)
            sel = (BetaSelection(b_star2, BetaBranch.BETA_STAR2, False) if b_star2 > 0.0
                   else _BETA_EMPTY)
    b = sel.beta
    G = g_closed_form(dT_I, dT_w, aA, C_p, b)
    if b == 0.0:
        return sel, G, 0.5 * (dT_I + G)
    return sel, G, b * math.sqrt(dT_I * G) + (1.0 - b) * (0.5 * (dT_I + G))


def approx_output(
    x: WallState,
    u: InletConditions,
    cond: Conductances,
    cp: CpParams,
    beta_hot: BetaSelection,
    beta_cold: BetaSelection,
) -> OutletTemps:
    """Approximate outlet temperatures via the closed-form roots.

    T_h2 = G(hot substitution) + T_w2 and T_c2 = T_w1 - G(cold
    substitution), recovering the outlet temperatures from the wall
    referenced differences; evaluate_approx lists the substitutions.
    """
    dT_w = x.T_w1 - x.T_w2
    T_h2 = g_closed_form(
        u.T_h1 - x.T_w1, dT_w, cond.aA_h, u.mdot_h * cp.theta3, beta_hot.beta)
    T_c2 = g_closed_form(
        x.T_w2 - u.T_c1, dT_w, cond.aA_c, u.mdot_c * cp.theta4, beta_cold.beta)
    return OutletTemps(T_h2 + x.T_w2, x.T_w1 - T_c2)


def steady_outlets(T_h1: float, T_c1: float, W_h: float, W_c: float,
                   kA: float) -> tuple[float, float]:
    """One-step steady outlet temperatures (T_h2s, T_c2s) with frozen mean
    specific heats, in the heat capacity rates W_h = mdot_h*theta5 and
    W_c = mdot_c*theta6.

    Branches on the heat-capacity-rate ratio: the generic counterflow
    expression with xi_s = exp(kA/W_h - kA/W_c), or the balanced-capacity
    form when the ratio is 1 within 1e-9 relative.
    """
    if kA <= 0.0:
        raise ValueError(f"kA must be positive, got {kA}")
    if abs(W_h / W_c - 1.0) < _BALANCED_SWITCH:
        T_h2s = (T_c1 * kA + T_h1 * W_h) / (kA + W_h)
    else:
        arg = kA / W_h - kA / W_c
        xi_s = math.exp(min(max(arg, -_EXP_CLAMP), _EXP_CLAMP))
        T_h2s = T_c1 + (T_c1 - T_h1) * (W_c - W_h) / (W_h - W_c * xi_s)
    return T_h2s, T_c1 + (W_h / W_c) * (T_h1 - T_h2s)


def update_cp_params(
    hot: StreamConfig,
    cold: StreamConfig,
    u: InletConditions,
    prev_outputs: OutletTemps | None = None,
    prev_steady: OutletTemps | None = None,
) -> CpParams:
    """Refresh the four mean specific heats from previous model outputs.

    theta3/theta4 use the previous transient outlets, theta5/theta6 the
    previous steady outlets.  With no history (start-up) all four seed
    from the point specific heat at the intakes.
    """
    if prev_outputs is None:
        prev_outputs = OutletTemps(u.T_h1, u.T_c1)
    if prev_steady is None:
        prev_steady = prev_outputs
    th3 = hot.fluid.mean_specific_heat(u.T_h1, prev_outputs.T_h2, hot.pressure)
    th4 = cold.fluid.mean_specific_heat(u.T_c1, prev_outputs.T_c2, cold.pressure)
    th5 = hot.fluid.mean_specific_heat(u.T_h1, prev_steady.T_h2, hot.pressure)
    th6 = cold.fluid.mean_specific_heat(u.T_c1, prev_steady.T_c2, cold.pressure)
    return CpParams(th3, th4, th5, th6)


STEADY_CP_MAX_ITER = 5
STEADY_CP_TOL = 1e-4  # K


def approx_steady_selfconsistent(
    u: InletConditions,
    hot: StreamConfig,
    cold: StreamConfig,
    kA_of: Callable[[CpParams], float],
    cp0: CpParams,
) -> tuple[OutletTemps, CpParams, int]:
    """Fixed-point refinement between steady_outlets and the steady cps.

    ``kA_of`` maps the mean specific heats to the rating kA, covering
    correlations whose conductance depends on them; ``cp0`` is the start.
    Stops after STEADY_CP_MAX_ITER sweeps or when both outlets move
    less than STEADY_CP_TOL kelvin.
    """
    def outlets_at(cp: CpParams) -> OutletTemps:
        return OutletTemps(*steady_outlets(
            u.T_h1, u.T_c1, u.mdot_h * cp.theta5, u.mdot_c * cp.theta6, kA_of(cp)))

    cp = cp0
    outlets = outlets_at(cp)
    n = 0
    for n in range(1, STEADY_CP_MAX_ITER + 1):
        cp = CpParams(
            cp.theta3,
            cp.theta4,
            hot.fluid.mean_specific_heat(u.T_h1, outlets.T_h2, hot.pressure),
            cold.fluid.mean_specific_heat(u.T_c1, outlets.T_c2, cold.pressure),
        )
        new = outlets_at(cp)
        moved = max(abs(new.T_h2 - outlets.T_h2), abs(new.T_c2 - outlets.T_c2))
        outlets = new
        if moved < STEADY_CP_TOL:
            break
    return outlets, cp, n


@dataclass(frozen=True, slots=True)
class ApproxEvaluation:
    """Full approximate-model evaluation at one (x, u, theta) point."""

    outlets: OutletTemps
    steady_outlets: OutletTemps
    steady_walls: WallState
    beta_hot: BetaSelection
    beta_cold: BetaSelection
    Q_h: float  # W, heat rate into the hot fluid (negative while cooling)
    Q_c: float  # W, heat rate into the cold fluid


def steady_terms(T_h1: float, T_c1: float, W_h: float, W_c: float,
                 aA_h: float, aA_c: float) -> tuple[float, ...]:
    """The steady part of evaluate_approx's terms at the steady conductances
    (aA_h, aA_c), with W_h = mdot_h*theta5 and W_c = mdot_c*theta6:
    (beta_LM hot, beta_LM cold, T_w1s, T_w2s, T_h2s, T_c2s)."""
    T_h2s, T_c2s = steady_outlets(T_h1, T_c1, W_h, W_c, serial_conductance(aA_h, aA_c))
    T_w1s, T_w2s = steady_walls(T_h1, T_c1, T_h2s, T_c2s, aA_h, aA_c)
    return (beta_lm_value(T_h1 - T_w1s, T_h2s - T_w2s),
            beta_lm_value(T_w2s - T_c1, T_w1s - T_c2s), T_w1s, T_w2s, T_h2s, T_c2s)


def approx_sides(w1: float, w2: float, T_h1: float, T_c1: float, aA_h: float, aA_c: float,
                 C_h: float, C_c: float, lm_h: BetaSelection, lm_c: BetaSelection) -> tuple:
    """evaluate_approx on floats at the walls, with C_h = mdot_h*theta3 and
    C_c = mdot_c*theta4: (beta_hot, beta_cold, T_h2, T_c2, Q_h, Q_c)."""
    dT_w = w1 - w2
    beta_h, G_h, WM_h = approx_side(T_h1 - w1, dT_w, aA_h, C_h, lm_h)
    beta_c, G_c, WM_c = approx_side(w2 - T_c1, dT_w, aA_c, C_c, lm_c)
    return beta_h, beta_c, G_h + w2, w1 - G_c, -aA_h * WM_h, aA_c * WM_c


def evaluate_approx(
    x: WallState,
    u: InletConditions,
    cp: CpParams,
    terms: Sequence[float],
) -> ApproxEvaluation:
    """Evaluate steady state, beta choices, outlets, and heat rates.

    ``terms`` = (aA_h, aA_c, mdot_c, beta_LM hot, beta_LM cold, T_w1s,
    T_w2s, T_h2s, T_c2s): the output conductances (at the transient mean
    cps theta3/theta4), the cold flow, which replaces u.mdot_c, and
    steady_terms at the steady conductances (at theta5/theta6).  The
    filter makes them with ekf.parameter_terms; at known conductances
    they are (aA_h, aA_c, mdot_c, *steady_terms(...)).  The first seven
    are partial_rows' tau.

    Each side solves the universal residual by approx_side under its
    own substitution, with dT_w = T_w1 - T_w2 (approx_sides):

    ====  ===========  =============  ===============  ====
    side  dT_I         unknown dT_II  C_p              aA
    ====  ===========  =============  ===============  ====
    hot   T_h1 - T_w1  T_h2 - T_w2    mdot_h * theta3  aA_h
    cold  T_w2 - T_c1  T_w1 - T_c2    mdot_c * theta4  aA_c
    ====  ===========  =============  ===============  ====
    """
    aA_h, aA_c, mdot_c, b_h, b_c, w1s, w2s, T_h2s, T_c2s = terms
    sel_h, sel_c, T_h2, T_c2, Q_h, Q_c = approx_sides(
        x.T_w1, x.T_w2, u.T_h1, u.T_c1, aA_h, aA_c, u.mdot_h * cp.theta3, mdot_c * cp.theta4,
        BetaSelection(b_h, BetaBranch.BETA_LM, False),
        BetaSelection(b_c, BetaBranch.BETA_LM, False))
    return ApproxEvaluation(OutletTemps(T_h2, T_c2), OutletTemps(T_h2s, T_c2s),
                            WallState(w1s, w2s), sel_h, sel_c, Q_h, Q_c)


def partial_rows(w1: float, w2: float, T_h1: float, T_c1: float, aA_h: float, aA_c: float,
                 C_h: float, C_c: float, theta4: float, beta_hot: BetaSelection,
                 beta_cold: BetaSelection, T_h2: float, T_c2: float,
                 dtau: Sequence[Sequence[float]]) -> tuple[list[float], ...]:
    """Partials of approx_sides' outlets and heat rates, and of the steady
    walls, with both beta branches held: lists over (T_w1, T_w2, q_1, ...)
    of (T_h2, T_c2, Q_h, Q_c, T_w1s, T_w2s), given approx_sides' arguments
    and results.  Row j of ``dtau`` holds the q_j partials of
    tau = (aA_h, aA_c, mdot_c, beta_LM hot, beta_LM cold, T_w1s, T_w2s).

    By the chain rule through g_partials: T_h2 = G_h + T_w2, T_c2 = T_w1 - G_c,
    and at each root Q_h = C_h*(T_h2 - T_h1), Q_c = C_c*(T_c2 - T_c1), C_c = mdot_c*theta4.
    """
    gI_h, gw_h, gA_h, _, gB_h = g_partials(T_h1 - w1, T_h2 - w2, aA_h, C_h, beta_hot)
    gI_c, gw_c, gA_c, gC_c, gB_c = g_partials(w2 - T_c1, w1 - T_c2, aA_c, C_c, beta_cold)
    # dT_I_h = T_h1 - T_w1, dT_I_c = T_w2 - T_c1, dT_w = T_w1 - T_w2
    d_h2 = [gw_h - gI_h, 1.0 - gw_h]
    d_c2 = [1.0 - gw_c, gw_c - gI_c]
    d_Qc = [C_c * d_c2[0], C_c * d_c2[1]]
    d_w1s = [0.0, 0.0]
    d_w2s = [0.0, 0.0]
    gM_c = theta4 * gC_c  # dG_c/dmdot_c
    dQ_dmdot = theta4 * (T_c2 - T_c1)
    for aA_h, aA_c, mdot_c, b_h, b_c, w1s, w2s in dtau:
        d_h2.append(gA_h * aA_h + gB_h * b_h)
        dc = -(gA_c * aA_c + gM_c * mdot_c + gB_c * b_c)
        d_c2.append(dc)
        d_Qc.append(C_c * dc + dQ_dmdot * mdot_c)
        d_w1s.append(w1s)
        d_w2s.append(w2s)
    return d_h2, d_c2, [C_h * v for v in d_h2], d_Qc, d_w1s, d_w2s
