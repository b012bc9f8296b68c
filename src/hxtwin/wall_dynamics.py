"""Wall temperature dynamics driving both models between steady states.

The wall state x = (T_w1, T_w2) relaxes toward the steady wall state
xs(u, theta) along a direction set by the error e = xs - x, with a speed
tied to the thermal drift rate Tdot_w = (-Q_h - Q_c)/theta7 (the net
heat flow parked in the wall divided by its heat capacity).  The error
plane splits into five sectors that fix the scalar gain a in
xdot = a * e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .approx_model import CpParams, approx_steady_terms, evaluate_approx
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
    "classify_sector",
    "wall_drift_rate",
    "wall_rhs",
    "wall_rhs_jacobian",
    "rk4_step",
    "integrate_step",
    "reference_wall_rhs",
    "approx_wall_rhs",
]


class Sector(Enum):
    I = 1  # both errors positive: wall uniformly too cold
    II = 2  # e1 < 0 < e2
    III = 3  # both errors negative: wall uniformly too hot
    IV = 4  # e2 < 0 < e1
    V = 5  # at the steady state within tolerance


SECTOR_V_EPSILON = 1e-9  # K, dead band around the steady state
TDW_LOWER_BOUND = 1e-6  # K/s, drift floor in sectors II/IV


@dataclass(frozen=True, slots=True)
class WallDynamicsConfig:
    theta7: float  # J/K, wall heat capacity
    substeps_per_sample: int = 10

    def __post_init__(self):
        if self.theta7 <= 0.0:
            raise ValueError(f"theta7 must be positive, got {self.theta7}")
        if self.substeps_per_sample < 1:
            raise ValueError("substeps_per_sample must be at least 1")


def classify_sector(e1: float, e2: float, epsilon: float) -> Sector:
    """Sector of the error vector; ties on the axes join sectors I/III."""
    if max(abs(e1), abs(e2)) < epsilon:
        return Sector.V
    if e1 >= 0.0 and e2 >= 0.0:
        return Sector.I
    if e1 <= 0.0 and e2 <= 0.0:
        return Sector.III
    return Sector.II if e2 > 0.0 else Sector.IV


def wall_drift_rate(Q_h: float, Q_c: float, theta7: float) -> float:
    """Tdot_w in K/s; Q_h and Q_c are heat rates into the two fluids."""
    return (-Q_h - Q_c) / theta7


def wall_rhs(
    x: WallState,
    xs: WallState,
    Q_h: float,
    Q_c: float,
    cfg: WallDynamicsConfig,
) -> tuple[tuple[float, float], Sector]:
    """Right-hand side xdot = a * e plus the active sector.

    Sectors I/III: a = 2 Tdot_w / (e1 + e2), matching the drift exactly
    in the mean.  Sectors II/IV: direction from e, magnitude from
    |Tdot_w| (floored), a = 2 max(|Tdot_w|, floor)/||e||.  Sector V
    freezes the state.
    """
    e1 = xs.T_w1 - x.T_w1
    e2 = xs.T_w2 - x.T_w2
    sector = classify_sector(e1, e2, SECTOR_V_EPSILON)
    if sector is Sector.V:
        return (0.0, 0.0), sector
    tdw = wall_drift_rate(Q_h, Q_c, cfg.theta7)
    if sector is Sector.I or sector is Sector.III:
        a = 2.0 * tdw / (e1 + e2)
    else:
        a = 2.0 * max(abs(tdw), TDW_LOWER_BOUND) / math.hypot(e1, e2)
    return (a * e1, a * e2), sector


def wall_rhs_jacobian(
    x: WallState,
    xs: WallState,
    Q_h: float,
    Q_c: float,
    dQ_h: tuple[float, ...],
    dQ_c: tuple[float, ...],
    cfg: WallDynamicsConfig,
    dxs: tuple[tuple[float, ...], tuple[float, ...]],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """d(wall_rhs)/dz within the active sector, as rows, for variables
    z = (T_w1, T_w2, ...).

    dQ_h and dQ_c are the partials of the heat rates over z, and dxs
    those of the steady walls (T_w1s, T_w2s).  With
    xdot = a*e and e = xs - x, de/dz = dxs/dz - dx/dz, and the Jacobian
    is e (grad a)' + a de/dz, where a moves with e and with the drift.
    In sector V, where wall_rhs is zero, the wall columns are the limit
    along the axes, diag(2 dTdot_w/dT_w1, 2 dTdot_w/dT_w2): what central
    differences about the steady state take, and what keeps the wall
    variance of the filter bounded there.  The other columns are zero:
    the dead band holds wall_rhs at zero whatever the heat rates, and a
    move of xs alone along an axis gives the same rate on both sides.
    """
    e1 = xs.T_w1 - x.T_w1
    e2 = xs.T_w2 - x.T_w2
    g = [wall_drift_rate(h, c, cfg.theta7) for h, c in zip(dQ_h, dQ_c)]
    sector = classify_sector(e1, e2, SECTOR_V_EPSILON)
    if sector is Sector.V:
        rest = (0.0,) * (len(g) - 2)
        return (2.0 * g[0], 0.0, *rest), (0.0, 2.0 * g[1], *rest)
    tdw = wall_drift_rate(Q_h, Q_c, cfg.theta7)
    # a and its partials a_e1, a_e2, a_t in e1, e2 and the drift
    if sector is Sector.I or sector is Sector.III:
        s = e1 + e2
        a = 2.0 * tdw / s
        a_e1 = a_e2 = -a / s
        a_t = 2.0 / s
    else:
        n = math.hypot(e1, e2)
        if abs(tdw) > TDW_LOWER_BOUND:
            a = 2.0 * abs(tdw) / n
            a_t = (2.0 if tdw > 0.0 else -2.0) / n
        else:  # the floor holds the speed: no slope from the drift
            a = 2.0 * TDW_LOWER_BOUND / n
            a_t = 0.0
        a_e1 = -a * e1 / (n * n)
        a_e2 = -a * e2 / (n * n)
    # da/dz = a_e1 de1/dz + a_e2 de2/dz + a_t dTdot_w/dz, with de/dz = dxs/dz
    # here and -I added on the walls below
    grad = [a_t * gk + a_e1 * s1 + a_e2 * s2 for gk, s1, s2 in zip(g, *dxs)]
    grad[0] -= a_e1
    grad[1] -= a_e2
    row1 = [e1 * gk + a * s1 for gk, s1 in zip(grad, dxs[0])]
    row2 = [e2 * gk + a * s2 for gk, s2 in zip(grad, dxs[1])]
    row1[0] -= a
    row2[1] -= a
    return tuple(row1), tuple(row2)


def rk4_step(
    rhs: Callable[[WallState], tuple[float, float]],
    x: WallState,
    h: float,
    k1: tuple[float, float],
) -> WallState:
    """One classical RK4 step of size h from x, given k1 = rhs(x), which
    a caller may also need for something else (the filter's Jacobian)."""
    w1, w2 = x.T_w1, x.T_w2
    k2 = rhs(WallState(w1 + 0.5 * h * k1[0], w2 + 0.5 * h * k1[1]))
    k3 = rhs(WallState(w1 + 0.5 * h * k2[0], w2 + 0.5 * h * k2[1]))
    k4 = rhs(WallState(w1 + h * k3[0], w2 + h * k3[1]))
    return WallState(w1 + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                     w2 + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))


def integrate_step(
    rhs: Callable[[WallState], tuple[float, float]],
    x: WallState,
    dt: float,
    substeps: int,
) -> WallState:
    """Advance the wall state by dt using fixed-step classical RK4."""
    if dt < 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if dt == 0.0:
        return x
    h = dt / substeps
    for _ in range(substeps):
        x = rk4_step(rhs, x, h, rhs(x))
    return x


def reference_wall_rhs(
    u: InletConditions,
    cond: Conductances,
    hot: StreamConfig,
    cold: StreamConfig,
    cfg: WallDynamicsConfig,
    start: OutletTemps | None = None,
) -> Callable[[WallState], tuple[float, float]]:
    """RHS closure for the reference model with u and theta frozen.

    The steady wall state is solved once here (it depends only on u and
    theta); each stage evaluation then needs just the two transient root
    solves for the outlet temperatures.  Each solve starts from the
    outlets of the previous stage, the first from ``start`` (the previous
    sample's outlets in a simulation; None for a cold start).
    """
    steady = ref_steady_outlets(u, cond.kA, hot, cold)
    xs = steady_wall_temps(steady, u, cond)
    guess = start

    def rhs(x: WallState) -> tuple[float, float]:
        nonlocal guess
        outs = guess = ref_output(x, u, cond, hot, cold, guess=guess)
        Q_h = -heat_rate(u.T_h1 - x.T_w1, outs.T_h2 - x.T_w2, cond.aA_h)
        Q_c = heat_rate(x.T_w1 - outs.T_c2, x.T_w2 - u.T_c1, cond.aA_c)
        return wall_rhs(x, xs, Q_h, Q_c, cfg)[0]

    return rhs


def approx_wall_rhs(
    u: InletConditions,
    cond_out: Conductances,
    cond_steady: Conductances,
    cp: CpParams,
    cfg: WallDynamicsConfig,
) -> Callable[[WallState], tuple[float, float]]:
    """RHS closure for the approximate model with u and theta frozen.

    The steady state and both beta_LM selections are computed once here
    (they depend only on u and theta); each stage evaluation then needs
    just the closed-form outlets and heat rates.
    """
    steady = approx_steady_terms(u, cond_steady, cp)

    def rhs(x: WallState) -> tuple[float, float]:
        ev = evaluate_approx(x, u, cond_out, cp, steady)
        return wall_rhs(x, steady.walls, ev.Q_h, ev.Q_c, cfg)[0]

    return rhs
