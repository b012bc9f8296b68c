"""Wall temperature dynamics driving both models between steady states.

The wall state x = (T_w1, T_w2) relaxes toward the steady wall state
xs(u, theta) along a direction set by the error e = xs - x, with a speed
tied to the thermal drift rate Tdot_w = (-Q_h - Q_c)/theta7 (the net
heat flow parked in the wall divided by its heat capacity).  The error
plane splits into five sectors that fix the scalar gain a in
xdot = a * e; sector_gain picks the sector and its gain in one call.
Truth (reference_wall_rhs) and filter (ApproxStage.rates) give the rates
as rhs(w1, w2) on floats, and rk4_pair steps both.  A truth stage takes
its heat rates from one call of the reference_model.output_solver built
for its sample, and builds no objects; that solver starts each stage
from the previous stage's outlets moved along their tangent in the
walls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .approx_model import BetaBranch, BetaSelection, CpParams, approx_sides, g_partials
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


class ApproxStage:
    """The approximate model's wall dynamics at one (u, theta), on floats,
    from evaluate_approx's (u, cp, terms), whose steady outlets it does not
    read, and partial_rows' dtau for the Jacobian rows.  ``rates(w1, w2)``
    is a*e of sector_gain at evaluate_approx's heat rates;
    ``rates_and_rows(w1, w2)`` also gives the rows of d(a*e)/dz over
    z = (T_w1, T_w2, q_1, ...), the filter's F rows.

    The rows are partial_rows' heat-rate and steady-wall partials put
    through the chain rule of the active sector, written out inline.  With
    xdot = a*e and e = xs - x, de/dz = dxs/dz - dx/dz, and the Jacobian is
    e (grad a)' + a de/dz, where a moves with e and with the drift.  In
    sector V, where the rates are zero, the wall columns are the limit
    along the axes, diag(2 dTdot_w/dT_w1, 2 dTdot_w/dT_w2): what central
    differences about the steady state take, and what keeps the wall
    variance of the filter bounded there.  The other columns are zero: the
    dead band holds the rates at zero whatever the heat rates, and a move
    of xs alone along an axis gives the same rate on both sides.
    """

    __slots__ = ("rates", "rates_and_rows")

    def __init__(self, u: InletConditions, cp: CpParams, terms: Sequence[float],
                 cfg: WallDynamicsConfig, dtau: Sequence[Sequence[float]] = ()):
        # the constants as closure cells, the cheapest loads per call
        aA_h, aA_c, mdot_c, b_h, b_c, w1s, w2s = terms[:7]
        T_h1, T_c1, theta4, theta7 = u.T_h1, u.T_c1, cp.theta4, cfg.theta7
        C_h, C_c = u.mdot_h * cp.theta3, mdot_c * theta4
        lm_h = BetaSelection(b_h, BetaBranch.BETA_LM, False)
        lm_c = BetaSelection(b_c, BetaBranch.BETA_LM, False)
        rest = [0.0] * len(dtau)

        def rates(w1: float, w2: float) -> tuple[float, float]:
            Q_h, Q_c = approx_sides(w1, w2, T_h1, T_c1, aA_h, aA_c, C_h, C_c, lm_h, lm_c)[4:]
            e1, e2 = w1s - w1, w2s - w2
            a = sector_gain(e1, e2, (-Q_h - Q_c) / theta7)[1]
            return a * e1, a * e2

        def rates_and_rows(w1: float, w2: float):
            sel_h, sel_c, T_h2, T_c2, Q_h, Q_c = approx_sides(
                w1, w2, T_h1, T_c1, aA_h, aA_c, C_h, C_c, lm_h, lm_c)
            e1, e2 = w1s - w1, w2s - w2
            tdw = (-Q_h - Q_c) / theta7
            sector, a = sector_gain(e1, e2, tdw)
            gI_h, gw_h, gA_h, _, gB_h = g_partials(T_h1 - w1, T_h2 - w2, aA_h, C_h, sel_h)
            gI_c, gw_c, gA_c, gC_c, gB_c = g_partials(w2 - T_c1, w1 - T_c2, aA_c, C_c, sel_c)
            # the wall partials of the drift, (-dQ_h - dQ_c)/theta7, with
            # dQ_h = C_h dT_h2 and dQ_c = C_c dT_c2 (dT_I_h = T_h1 - T_w1,
            # dT_I_c = T_w2 - T_c1, dT_w = T_w1 - T_w2)
            g1 = (-(C_h * (gw_h - gI_h)) - C_c * (1.0 - gw_c)) / theta7
            g2 = (-(C_h * (1.0 - gw_h)) - C_c * (gw_c - gI_c)) / theta7
            if sector is _V:
                return (a * e1, a * e2), ([2.0 * g1, 0.0, *rest], [0.0, 2.0 * g2, *rest])
            # the partials a_e1, a_e2, a_t of a in e1, e2 and the drift
            if sector is _I or sector is _III:
                s = e1 + e2
                a_e1 = a_e2 = -a / s
                a_t = 2.0 / s
            else:
                n = math.hypot(e1, e2)
                # the floor holds the speed: no slope from the drift
                a_t = 0.0 if abs(tdw) <= TDW_LOWER_BOUND else (2.0 if tdw > 0.0 else -2.0) / n
                a_e1 = -a * e1 / (n * n)
                a_e2 = -a * e2 / (n * n)
            # da/dz = a_t dTdot_w/dz + a_e1 de1/dz + a_e2 de2/dz, with
            # de/dz = dxs/dz less the identity on the walls; the products
            # with the steady walls' zero wall partials keep every bit of
            # partial_rows then the sector's rows, signed zeros included
            grad1 = a_t * g1 + a_e1 * 0.0 + a_e2 * 0.0 - a_e1
            grad2 = a_t * g2 + a_e1 * 0.0 + a_e2 * 0.0 - a_e2
            row1 = [e1 * grad1 + a * 0.0 - a, e1 * grad2 + a * 0.0]
            row2 = [e2 * grad1 + a * 0.0, e2 * grad2 + a * 0.0 - a]
            gM_c = theta4 * gC_c  # dG_c/dmdot_c
            dQ_dmdot = theta4 * (T_c2 - T_c1)
            for daA_h, daA_c, dmdot_c, db_h, db_c, dw1s, dw2s in dtau:
                dQ_c = C_c * -(gA_c * daA_c + gM_c * dmdot_c + gB_c * db_c) + dQ_dmdot * dmdot_c
                grad = (a_t * ((-(C_h * (gA_h * daA_h + gB_h * db_h)) - dQ_c) / theta7)
                        + a_e1 * dw1s + a_e2 * dw2s)
                row1.append(e1 * grad + a * dw1s)
                row2.append(e2 * grad + a * dw2s)
            return (a * e1, a * e2), (row1, row2)

        self.rates = rates
        self.rates_and_rows = rates_and_rows
