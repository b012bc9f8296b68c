"""Wall temperature dynamics driving both models between steady states.

The wall state x = (T_w1, T_w2) relaxes toward the steady wall state
xs(u, theta) along a direction set by the error e = xs - x, with a speed
tied to the thermal drift rate Tdot_w = (-Q_h - Q_c)/theta7 (the net
heat flow parked in the wall divided by its heat capacity).  The error
plane splits into five sectors that fix the scalar gain a in
xdot = a * e; sector_gain picks the sector and its gain in one call.
Truth (reference_wall_rhs) and filter (ApproxStage.rates) give the rates
as rhs(w1, w2) on floats, and rk4_pair steps both.  A filter stage's
rates run in one frame: both sides' approx_model.approx_side, the drift
and sector_gain written out, from constants formed once per stage.  The
same stage gives the filter's F rows (rates_and_rows) and its outlets
with H's rows (outputs_and_rows), both from one side kernel that also
forms the closed-form roots' partials on each side's branch.  A truth
stage takes its heat rates from one call of the reference_model.output_solver built
for its sample, and builds no objects; that solver starts each stage
from the previous stage's outlets moved along their tangent in the
walls.
"""

from __future__ import annotations

import math
from math import hypot, sqrt
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .approx_model import CpParams, g_closed_form
from .fluids import StreamConfig
from .reference_model import (
    Conductances,
    InletConditions,
    OutletTemps,
    WallState,
    output_solver,
    ref_output,
    ref_steady_outlets,
    steady_wall_temps,
)

__all__ = [
    "Sector",
    "WallDynamicsConfig",
    "sector_gain",
    "rk4_pair",
    "integrate_step",
    "reference_wall_rhs",
    "ApproxStage",
    # re-exported, unused here: perfbench's tracer wraps ref_output as a
    # global of this module, and stops when the name is missing
    "ref_output",
]


class Sector(Enum):
    I = 1  # both errors positive: wall uniformly too cold
    II = 2  # e1 < 0 < e2
    III = 3  # both errors negative: wall uniformly too hot
    IV = 4  # e2 < 0 < e1
    V = 5  # at the steady state within tolerance


SECTOR_V_EPSILON = 1e-9  # K, dead band around the steady state
TDW_LOWER_BOUND = 1e-6  # K/s, drift floor in sectors II/IV
# module globals load faster than enum members, once per RK4 stage
_I, _II, _III, _IV, _V = Sector.I, Sector.II, Sector.III, Sector.IV, Sector.V


@dataclass(frozen=True, slots=True)
class WallDynamicsConfig:
    theta7: float  # J/K, wall heat capacity
    substeps_per_sample: int = 10

    def __post_init__(self):
        if self.theta7 <= 0.0:
            raise ValueError(f"theta7 must be positive, got {self.theta7}")
        if self.substeps_per_sample < 1:
            raise ValueError("substeps_per_sample must be at least 1")


def sector_gain(e1: float, e2: float, tdw: float) -> tuple[Sector, float]:
    """The active sector of the error e = xs - x and the gain a of
    xdot = a * e at the drift rate tdw.

    Sector V is the dead band max(|e1|, |e2|) < SECTOR_V_EPSILON, where a
    = 0 freezes the state.  Sectors I/III (ties on the axes join them):
    a = 2 Tdot_w / (e1 + e2), matching the drift exactly in the mean.
    Sectors II/IV: direction from e, magnitude from |Tdot_w| (floored),
    a = 2 max(|Tdot_w|, floor)/||e||.
    """
    if max(abs(e1), abs(e2)) < SECTOR_V_EPSILON:
        return _V, 0.0
    if e1 >= 0.0 and e2 >= 0.0:
        return _I, 2.0 * tdw / (e1 + e2)
    if e1 <= 0.0 and e2 <= 0.0:
        return _III, 2.0 * tdw / (e1 + e2)
    return _II if e2 > 0.0 else _IV, 2.0 * max(abs(tdw), TDW_LOWER_BOUND) / math.hypot(e1, e2)


def rk4_pair(rhs: Callable[[float, float], tuple[float, float]], w1: float, w2: float,
             h: float, k1: tuple[float, float]) -> tuple[float, float]:
    """One classical RK4 step of size h from the walls (w1, w2), given
    k1 = rhs(w1, w2), which a caller may also need for something else
    (the filter's Jacobian)."""
    k2 = rhs(w1 + 0.5 * h * k1[0], w2 + 0.5 * h * k1[1])
    k3 = rhs(w1 + 0.5 * h * k2[0], w2 + 0.5 * h * k2[1])
    k4 = rhs(w1 + h * k3[0], w2 + h * k3[1])
    return (w1 + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            w2 + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))


def integrate_step(rhs: Callable[[float, float], tuple[float, float]], x: WallState,
                   dt: float, substeps: int) -> WallState:
    """Advance the walls by a finite dt >= 0 in substeps rk4_pair steps."""
    if not 0.0 <= dt < math.inf:
        raise ValueError(f"dt must be finite and nonnegative, got {dt}")
    if dt == 0.0:
        return x
    h = dt / substeps
    w1, w2 = x.T_w1, x.T_w2
    for _ in range(substeps):
        w1, w2 = rk4_pair(rhs, w1, w2, h, rhs(w1, w2))
    return WallState(w1, w2)


def reference_wall_rhs(
    u: InletConditions,
    cond: Conductances,
    hot: StreamConfig,
    cold: StreamConfig,
    cfg: WallDynamicsConfig,
    start: OutletTemps | None = None,
) -> Callable[[float, float], tuple[float, float]]:
    """The wall rates rhs(w1, w2) of the reference model, u and theta frozen.

    The steady wall state and output_solver's side constants are formed
    once here (they depend only on u and theta); each stage evaluation
    then needs just the two transient root solves, which also give the
    heat rates of the drift.  The first solve starts from ``start`` (the
    previous sample's outlets in a simulation; None for a cold start),
    each later one from the previous stage's outlets moved along their
    tangent in the walls (output_solver's predictor).
    """
    steady = ref_steady_outlets(u, cond.kA, hot, cold)
    xs = steady_wall_temps(steady, u, cond)
    solve = output_solver(u, cond, hot, cold, start)
    # the constants as closure cells, the cheapest loads per call
    w1s, w2s, theta7 = xs.T_w1, xs.T_w2, cfg.theta7

    def rhs(w1: float, w2: float) -> tuple[float, float]:
        _, _, Q_h, Q_c = solve(w1, w2)
        e1, e2 = w1s - w1, w2s - w2
        a = sector_gain(e1, e2, (-Q_h - Q_c) / theta7)[1]
        return a * e1, a * e2

    return rhs


def _side_constants(aA: float, C_p: float, b: float) -> tuple[float, ...]:
    """One side's per-stage constants of approx_side and the root partials
    at beta_LM = b, each formed as they form it (1.0 - 0.0 is their
    1 - beta at beta = 0): (0.5*aA*(1 - b), aA*b, 2*xi1 at b, xi1 at 0,
    1 - b, 0.5*aA*b) for the root and the beta_LM partials, then the zero
    branch's -R_I/R_G, -C_p/R_G and -R_b/R_G (R_b = 0), R_G and C_p*R_G.
    A beta_LM above 1 never passes approx_side's test: its 0.5*aA*(1 - b)
    is NaN, and every comparison with NaN is false."""
    R_G = -C_p - 0.5 * aA * (1.0 - 0.0)
    return (0.5 * aA * (1.0 - b) if b <= 1.0 else math.nan, aA * b,
            2.0 * (aA * (1.0 - b) + 2.0 * C_p), aA * (1.0 - 0.0) + 2.0 * C_p, 1.0 - b,
            0.5 * aA * b, -(C_p - 0.5 * aA * (1.0 - 0.0)) / R_G, -C_p / R_G, -0.0 / R_G,
            R_G, C_p * R_G)


class ApproxStage:
    """The approximate model's wall dynamics and outputs at one (u, theta),
    on floats, from evaluate_approx's (u, cp, terms), whose steady outlets
    it does not read, and dtau, the rows of tau partials over the
    parameters q_1, ... (tau = terms[:7]).  Over z = (T_w1, T_w2, q_1,
    ...):

    - ``rates(w1, w2)`` is a*e of sector_gain at evaluate_approx's heat
      rates;
    - ``rates_and_rows(w1, w2)`` also gives the rows of d(a*e)/dz, the
      filter's F rows;
    - ``outputs_and_rows(w1, w2)`` gives evaluate_approx's outlets
      (T_h2, T_c2) and their rows over z, the filter's H rows.

    Every call runs on floats.  ``rates`` runs in one frame: it writes out
    both sides' approx_side (the beta rule, the closed-form root on the
    beta_LM and zero branches, the weighted mean), the drift and
    sector_gain.  The two row methods call one side kernel, which writes
    out the same per side and the root's partials on the branch that side
    took, then chain those partials.  Only the rare beta*_2 branch calls
    g_closed_form, which keeps its feasibility tolerance.  The constants
    of a stage are formed once, in __init__, in the float order of the
    calls they stand for, so every result keeps the bits of those calls.
    The beta_LM values are steady_terms' own, in (0, 1]; one above 1 never
    passes the beta rule, as in approx_side.

    The root G of each side solves the universal residual R = C_p*(dT_I -
    G + dT_w) - aA*WM(dT_I, G), so dG/dq = -R_q / R_G, with
    R_G = -C_p - aA*(beta*sqrt(dT_I/G)/2 + (1-beta)/2),
    R_dT_I = C_p - aA*(beta*sqrt(G/dT_I)/2 + (1-beta)/2), R_dT_w = C_p,
    R_aA = -WM, R_C_p = aA*WM/C_p (at the root) and R_beta = -aA*(GM - AM)
    on the means of (dT_I, G).  beta follows beta_LM on the beta_LM branch
    only.  On the beta*_2 branch G is identically 0, and a root G = 0
    with beta > 0 has R_G = -inf; both give zero partials.  The outlets
    are T_h2 = G_h + T_w2 and T_c2 = T_w1 - G_c, with dT_I_h = T_h1 -
    T_w1, dT_I_c = T_w2 - T_c1 and dT_w = T_w1 - T_w2.

    The F rows put the heat rates' partials, Q_h = C_h*(T_h2 - T_h1) and
    Q_c = C_c*(T_c2 - T_c1) at each root, and the steady walls' through
    the chain rule of the active sector.  With xdot = a*e and e = xs - x,
    de/dz = dxs/dz - dx/dz, and the Jacobian is e (grad a)' + a de/dz,
    where a moves with e and with the drift.  In sector V, where the rates
    are zero, the wall columns are the limit along the axes,
    diag(2 dTdot_w/dT_w1, 2 dTdot_w/dT_w2): what central differences about
    the steady state take, and what keeps the wall variance of the filter
    bounded there.  The other columns are zero: the dead band holds the
    rates at zero whatever the heat rates, and a move of xs alone along an
    axis gives the same rate on both sides.
    """

    __slots__ = ("rates", "rates_and_rows", "outputs_and_rows")

    def __init__(self, u: InletConditions, cp: CpParams, terms: Sequence[float],
                 cfg: WallDynamicsConfig, dtau: Sequence[Sequence[float]] = ()):
        # the constants as closure cells, the cheapest loads per call
        aA_h, aA_c, mdot_c, b_h, b_c, w1s, w2s = terms[:7]
        T_h1, T_c1, theta4, theta7 = u.T_h1, u.T_c1, cp.theta4, cfg.theta7
        C_h, C_c = u.mdot_h * cp.theta3, mdot_c * theta4
        (k_h, ab_h, x2_h, x0_h, omb_h, hb_h,
         gI0_h, gw0_h, gB0_h, RG0_h, _) = _side_constants(aA_h, C_h, b_h)
        (k_c, ab_c, x2_c, x0_c, omb_c, hb_c,
         gI0_c, gw0_c, gB0_c, RG0_c, CR0_c) = _side_constants(aA_c, C_c, b_c)
        rest = [0.0] * len(dtau)
        # sector V's dead band; max(|e1|, |e2|) < eps is false for a NaN e1
        # and decided by |e1| alone for a NaN e2, as the test below is
        eps = SECTOR_V_EPSILON

        def rates(w1: float, w2: float) -> tuple[float, float]:
            dT_w = w1 - w2
            # hot side: dT_I = T_h1 - T_w1, C_p = C_h; the beta rule is
            # beta_LM if it passes, else beta*_2 if positive, else 0
            dI = T_h1 - w1
            slack = C_h * (dI + dT_w)
            if dI > 0.0 and slack >= 0.0 and k_h * dI <= slack:
                c0 = k_h * dI - slack  # <= 0 by the test just made
                y = ab_h * sqrt(dI)
                y = -2.0 * c0 / (y + sqrt(y * y - x2_h * c0))
                G = y * y
                WM_h = b_h * sqrt(dI * G) + omb_h * (0.5 * (dI + G))
            elif dI > 0.0 and slack >= 0.0 and (b := 1.0 - 2.0 * slack / (dI * aA_h)) > 0.0:
                G = g_closed_form(dI, dT_w, aA_h, C_h, b)
                WM_h = b * sqrt(dI * G) + (1.0 - b) * (0.5 * (dI + G))
            else:
                G = dI + dT_w - aA_h * (2.0 * dI + dT_w) / x0_h
                WM_h = 0.5 * (dI + G)
            # cold side: dT_I = T_w2 - T_c1, C_p = C_c
            dI = w2 - T_c1
            slack = C_c * (dI + dT_w)
            if dI > 0.0 and slack >= 0.0 and k_c * dI <= slack:
                c0 = k_c * dI - slack
                y = ab_c * sqrt(dI)
                y = -2.0 * c0 / (y + sqrt(y * y - x2_c * c0))
                G = y * y
                WM_c = b_c * sqrt(dI * G) + omb_c * (0.5 * (dI + G))
            elif dI > 0.0 and slack >= 0.0 and (b := 1.0 - 2.0 * slack / (dI * aA_c)) > 0.0:
                G = g_closed_form(dI, dT_w, aA_c, C_c, b)
                WM_c = b * sqrt(dI * G) + (1.0 - b) * (0.5 * (dI + G))
            else:
                G = dI + dT_w - aA_c * (2.0 * dI + dT_w) / x0_c
                WM_c = 0.5 * (dI + G)
            # sector_gain at the drift (-Q_h - Q_c)/theta7, Q_h = -aA_h*WM_h
            # and Q_c = aA_c*WM_c
            e1, e2 = w1s - w1, w2s - w2
            if -eps < e1 < eps and not abs(e2) >= eps:
                a = 0.0
            elif e1 >= 0.0 and e2 >= 0.0 or e1 <= 0.0 and e2 <= 0.0:
                a = 2.0 * ((aA_h * WM_h - aA_c * WM_c) / theta7) / (e1 + e2)
            else:
                a = (2.0 * max(abs((aA_h * WM_h - aA_c * WM_c) / theta7), TDW_LOWER_BOUND)
                     / hypot(e1, e2))
            return a * e1, a * e2

        def sides(w1: float, w2: float) -> tuple[float, ...]:
            # (T_h2, T_c2, WM_h, WM_c), the outlets' wall partials
            # (dT_h2/dT_w1, dT_h2/dT_w2, dT_c2/dT_w1, dT_c2/dT_w2), then
            # the roots' partials in tau: dG_h/d aA_h, dG_h/d beta_LM hot,
            # dG_c/d aA_c, dG_c/d mdot_c = theta4 dG_c/d C_p and
            # dG_c/d beta_LM cold
            dT_w = w1 - w2
            # hot side, and the root's (dG/d dT_I, dG/d dT_w, dG/d aA,
            # dG/d beta_LM) on its branch, at dT_II = T_h2 - T_w2
            dI = T_h1 - w1
            slack = C_h * (dI + dT_w)
            if dI > 0.0 and slack >= 0.0 and k_h * dI <= slack:
                c0 = k_h * dI - slack
                y = ab_h * sqrt(dI)
                y = -2.0 * c0 / (y + sqrt(y * y - x2_h * c0))
                G = y * y
                WM_h = b_h * sqrt(dI * G) + omb_h * (0.5 * (dI + G))
                dII = G + w2 - w2  # T_h2 - T_w2 as the outlet gives it, not G
                if dII <= 0.0:
                    gI_h = gw_h = gA_h = gB_h = 0.0
                else:
                    am = 0.5 * (dI + dII)
                    ratio = sqrt(dII / dI)
                    gm = sqrt(dI * dII)
                    R_G = -C_h - hb_h / ratio - k_h
                    gI_h = -(C_h - hb_h * ratio - k_h) / R_G
                    gw_h = -C_h / R_G
                    gA_h = (b_h * gm + omb_h * am) / R_G
                    gB_h = aA_h * (gm - am) / R_G
            elif dI > 0.0 and slack >= 0.0 and (b := 1.0 - 2.0 * slack / (dI * aA_h)) > 0.0:
                G = g_closed_form(dI, dT_w, aA_h, C_h, b)
                WM_h = b * sqrt(dI * G) + (1.0 - b) * (0.5 * (dI + G))
                gI_h = gw_h = gA_h = gB_h = 0.0  # G is 0 wherever beta*_2 holds
            else:
                G = dI + dT_w - aA_h * (2.0 * dI + dT_w) / x0_h
                WM_h = 0.5 * (dI + G)
                gI_h, gw_h, gB_h = gI0_h, gw0_h, gB0_h
                gA_h = 0.5 * (dI + (G + w2 - w2)) / RG0_h
            T_h2 = G + w2
            # cold side, with dG/d C_p as well, at dT_II = T_w1 - T_c2
            dI = w2 - T_c1
            slack = C_c * (dI + dT_w)
            if dI > 0.0 and slack >= 0.0 and k_c * dI <= slack:
                c0 = k_c * dI - slack
                y = ab_c * sqrt(dI)
                y = -2.0 * c0 / (y + sqrt(y * y - x2_c * c0))
                G = y * y
                WM_c = b_c * sqrt(dI * G) + omb_c * (0.5 * (dI + G))
                dII = w1 - (w1 - G)  # T_w1 - T_c2, as for the hot side
                if dII <= 0.0:
                    gI_c = gw_c = gA_c = gC_c = gB_c = 0.0
                else:
                    am = 0.5 * (dI + dII)
                    ratio = sqrt(dII / dI)
                    gm = sqrt(dI * dII)
                    wm = b_c * gm + omb_c * am
                    R_G = -C_c - hb_c / ratio - k_c
                    gI_c = -(C_c - hb_c * ratio - k_c) / R_G
                    gw_c = -C_c / R_G
                    gA_c = wm / R_G
                    gC_c = -aA_c * wm / (C_c * R_G)
                    gB_c = aA_c * (gm - am) / R_G
            elif dI > 0.0 and slack >= 0.0 and (b := 1.0 - 2.0 * slack / (dI * aA_c)) > 0.0:
                G = g_closed_form(dI, dT_w, aA_c, C_c, b)
                WM_c = b * sqrt(dI * G) + (1.0 - b) * (0.5 * (dI + G))
                gI_c = gw_c = gA_c = gC_c = gB_c = 0.0
            else:
                G = dI + dT_w - aA_c * (2.0 * dI + dT_w) / x0_c
                WM_c = 0.5 * (dI + G)
                gI_c, gw_c, gB_c = gI0_c, gw0_c, gB0_c
                am = 0.5 * (dI + (w1 - (w1 - G)))
                gA_c = am / RG0_c
                gC_c = -aA_c * am / CR0_c
            return (T_h2, w1 - G, WM_h, WM_c, gw_h - gI_h, 1.0 - gw_h, 1.0 - gw_c, gw_c - gI_c,
                    gA_h, gB_h, gA_c, theta4 * gC_c, gB_c)

        def rates_and_rows(w1: float, w2: float):
            (_, T_c2, WM_h, WM_c, h1, h2, c1, c2,
             gA_h, gB_h, gA_c, gM_c, gB_c) = sides(w1, w2)
            e1, e2 = w1s - w1, w2s - w2
            tdw = (aA_h * WM_h - aA_c * WM_c) / theta7
            # the wall partials of the drift, (-dQ_h - dQ_c)/theta7, with
            # dQ_h = C_h dT_h2 and dQ_c = C_c dT_c2
            g1 = (-(C_h * h1) - C_c * c1) / theta7
            g2 = (-(C_h * h2) - C_c * c2) / theta7
            if -eps < e1 < eps and not abs(e2) >= eps:
                return (0.0 * e1, 0.0 * e2), ([2.0 * g1, 0.0, *rest], [0.0, 2.0 * g2, *rest])
            # sector_gain's a and its partials a_e1, a_e2, a_t in e1, e2
            # and the drift
            if e1 >= 0.0 and e2 >= 0.0 or e1 <= 0.0 and e2 <= 0.0:
                s = e1 + e2
                a = 2.0 * tdw / s
                a_e1 = a_e2 = -a / s
                a_t = 2.0 / s
            else:
                n = hypot(e1, e2)
                a = 2.0 * max(abs(tdw), TDW_LOWER_BOUND) / n
                # the floor holds the speed: no slope from the drift
                a_t = 0.0 if abs(tdw) <= TDW_LOWER_BOUND else (2.0 if tdw > 0.0 else -2.0) / n
                a_e1 = -a * e1 / (n * n)
                a_e2 = -a * e2 / (n * n)
            # da/dz = a_t dTdot_w/dz + a_e1 de1/dz + a_e2 de2/dz, with
            # de/dz = dxs/dz less the identity on the walls; the products
            # with the steady walls' zero wall partials keep every bit of
            # the heat-rate rows then the sector's rows, signed zeros
            # included
            grad1 = a_t * g1 + a_e1 * 0.0 + a_e2 * 0.0 - a_e1
            grad2 = a_t * g2 + a_e1 * 0.0 + a_e2 * 0.0 - a_e2
            row1 = [e1 * grad1 + a * 0.0 - a, e1 * grad2 + a * 0.0]
            row2 = [e2 * grad1 + a * 0.0, e2 * grad2 + a * 0.0 - a]
            dQ_dmdot = theta4 * (T_c2 - T_c1)
            for daA_h, daA_c, dmdot_c, db_h, db_c, dw1s, dw2s in dtau:
                dQ_c = C_c * -(gA_c * daA_c + gM_c * dmdot_c + gB_c * db_c) + dQ_dmdot * dmdot_c
                grad = (a_t * ((-(C_h * (gA_h * daA_h + gB_h * db_h)) - dQ_c) / theta7)
                        + a_e1 * dw1s + a_e2 * dw2s)
                row1.append(e1 * grad + a * dw1s)
                row2.append(e2 * grad + a * dw2s)
            return (a * e1, a * e2), (row1, row2)

        def outputs_and_rows(w1: float, w2: float):
            (T_h2, T_c2, _, _, h1, h2, c1, c2,
             gA_h, gB_h, gA_c, gM_c, gB_c) = sides(w1, w2)
            H_h, H_c = [h1, h2], [c1, c2]
            for daA_h, daA_c, dmdot_c, db_h, db_c, _, _ in dtau:
                H_h.append(gA_h * daA_h + gB_h * db_h)
                H_c.append(-(gA_c * daA_c + gM_c * dmdot_c + gB_c * db_c))
            return T_h2, T_c2, H_h, H_c

        self.rates = rates
        self.rates_and_rows = rates_and_rows
        self.outputs_and_rows = outputs_and_rows
