"""Wall temperature dynamics driving both models between steady states.

The wall state x = (T_w1, T_w2) relaxes toward the steady wall state
xs(u, theta) along a direction set by the error e = xs - x, with a speed
tied to the thermal drift rate Tdot_w = (-Q_h - Q_c)/theta7 (the net
heat flow parked in the wall divided by its heat capacity).  The error
plane splits into five sectors that fix the scalar gain a in
xdot = a * e; sector_gain picks the sector and its gain in one call.
Truth (reference_wall_rhs) and filter (ApproxStage.rates) give the rates
as rhs(w1, w2) on floats, and rk4_pair steps both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .approx_model import BetaBranch, BetaSelection, CpParams, approx_sides, partial_rows
from .fluids import StreamConfig
from .means import heat_rate
from .reference_model import (
    Conductances,
    InletConditions,
    OutletTemps,
    WallState,
    ref_output,
    ref_steady_outlets,
    steady_wall_temps,
)

__all__ = [
    "Sector",
    "WallDynamicsConfig",
    "wall_drift_rate",
    "sector_gain",
    "rhs_rows",
    "rk4_pair",
    "integrate_step",
    "reference_wall_rhs",
    "ApproxStage",
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


def wall_drift_rate(Q_h: float, Q_c: float, theta7: float) -> float:
    """Tdot_w in K/s; Q_h and Q_c are heat rates into the two fluids."""
    return (-Q_h - Q_c) / theta7


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


def rhs_rows(e1: float, e2: float, sector: Sector, a: float, tdw: float,
             dQ_h: Sequence[float], dQ_c: Sequence[float], theta7: float,
             dxs: tuple[Sequence[float], Sequence[float]]) -> tuple[list[float], list[float]]:
    """Rows of d(a*e)/dz, the wall rates' partials in the active sector,
    over z = (T_w1, T_w2, q_1, ...), given e = xs - x, sector_gain at it,
    the drift tdw, and the z partials of the heat rates (dQ_h, dQ_c) and
    steady walls (dxs).

    With xdot = a*e and e = xs - x, de/dz = dxs/dz - dx/dz, and the
    Jacobian is e (grad a)' + a de/dz, where a moves with e and with the
    drift.  In sector V, where the rates are zero, the wall columns are the
    limit along the axes, diag(2 dTdot_w/dT_w1, 2 dTdot_w/dT_w2): what
    central differences about the steady state take, and what keeps the
    wall variance of the filter bounded there.  The other columns are
    zero: the dead band holds the rates at zero whatever the heat rates,
    and a move of xs alone along an axis gives the same rate on both
    sides.
    """
    g = [wall_drift_rate(h, c, theta7) for h, c in zip(dQ_h, dQ_c)]
    if sector is _V:
        rest = [0.0] * (len(g) - 2)
        return [2.0 * g[0], 0.0, *rest], [0.0, 2.0 * g[1], *rest]
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
    s1, s2 = dxs
    row1, row2 = [], []
    for j, gk in enumerate(g):
        # da/dz = a_e1 de1/dz + a_e2 de2/dz + a_t dTdot_w/dz, with
        # de/dz = dxs/dz less the identity on the walls
        grad = a_t * gk + a_e1 * s1[j] + a_e2 * s2[j]
        if j < 2:
            grad -= a_e2 if j else a_e1
        row1.append(e1 * grad + a * s1[j])
        row2.append(e2 * grad + a * s2[j])
    row1[0] -= a
    row2[1] -= a
    return row1, row2


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

    The steady wall state is solved once here (it depends only on u and
    theta); each stage evaluation then needs just the two transient root
    solves for the outlet temperatures.  Each solve starts from the
    outlets of the previous stage, the first from ``start`` (the previous
    sample's outlets in a simulation; None for a cold start).
    """
    steady = ref_steady_outlets(u, cond.kA, hot, cold)
    xs = steady_wall_temps(steady, u, cond)
    guess = start

    def rhs(w1: float, w2: float) -> tuple[float, float]:
        nonlocal guess
        outs = guess = ref_output(WallState(w1, w2), u, cond, hot, cold, guess=guess)
        Q_h = -heat_rate(u.T_h1 - w1, outs.T_h2 - w2, cond.aA_h)
        Q_c = heat_rate(w1 - outs.T_c2, w2 - u.T_c1, cond.aA_c)
        e1, e2 = xs.T_w1 - w1, xs.T_w2 - w2
        a = sector_gain(e1, e2, wall_drift_rate(Q_h, Q_c, cfg.theta7))[1]
        return a * e1, a * e2

    return rhs


class ApproxStage:
    """The approximate model's wall dynamics at one (u, theta), on floats,
    from evaluate_approx's (u, cp, terms), whose steady outlets it does not
    read, and partial_rows' dtau for the Jacobian rows.  ``rates(w1, w2)``
    is a*e of sector_gain at evaluate_approx's heat rates;
    ``rates_and_rows(w1, w2)`` also gives rhs_rows over (T_w1, T_w2, q_1, ...)."""

    __slots__ = ("rates", "rates_and_rows")

    def __init__(self, u: InletConditions, cp: CpParams, terms: Sequence[float],
                 cfg: WallDynamicsConfig, dtau: Sequence[Sequence[float]] = ()):
        # the constants as closure cells, the cheapest loads per call
        aA_h, aA_c, mdot_c, b_h, b_c, w1s, w2s = terms[:7]
        T_h1, T_c1, theta4, theta7 = u.T_h1, u.T_c1, cp.theta4, cfg.theta7
        C_h, C_c = u.mdot_h * cp.theta3, mdot_c * theta4
        lm_h = BetaSelection(b_h, BetaBranch.BETA_LM, False)
        lm_c = BetaSelection(b_c, BetaBranch.BETA_LM, False)

        def rates(w1: float, w2: float) -> tuple[float, float]:
            Q_h, Q_c = approx_sides(w1, w2, T_h1, T_c1, aA_h, aA_c, C_h, C_c, lm_h, lm_c)[4:]
            e1, e2 = w1s - w1, w2s - w2
            a = sector_gain(e1, e2, wall_drift_rate(Q_h, Q_c, theta7))[1]
            return a * e1, a * e2

        def rates_and_rows(w1: float, w2: float):
            sel_h, sel_c, T_h2, T_c2, Q_h, Q_c = approx_sides(
                w1, w2, T_h1, T_c1, aA_h, aA_c, C_h, C_c, lm_h, lm_c)
            _, _, dQ_h, dQ_c, dw1s, dw2s = partial_rows(
                w1, w2, T_h1, T_c1, aA_h, aA_c, C_h, C_c, theta4,
                sel_h, sel_c, T_h2, T_c2, dtau)
            e1, e2 = w1s - w1, w2s - w2
            tdw = wall_drift_rate(Q_h, Q_c, theta7)
            sector, a = sector_gain(e1, e2, tdw)
            return (a * e1, a * e2), rhs_rows(e1, e2, sector, a, tdw, dQ_h, dQ_c, theta7,
                                              (dw1s, dw2s))

        self.rates = rates
        self.rates_and_rows = rates_and_rows
