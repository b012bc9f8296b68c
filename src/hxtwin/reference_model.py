"""Accurate reference model of the counterflow heat exchanger.

The reference model computes outlet temperatures as roots of side-wise
residual functions that balance enthalpy rate against heat transfer rate
through the wall, using the exact fluid enthalpy model.  Each side is
one call of _solve_side on floats: given a guess (in a simulation, the
previous outlets), a Newton iteration that evaluates the side residual
and its slope inline, taking h and dh/dT from one call of the stream's
curve (fluids.StreamConfig.curve), with the bracketed search of
_side_residual's closure as its fallback; it also gives the side's heat
rate at the outlet it returns and, from Newton, the tangent of that
outlet in the two walls.  output_solver fixes the inputs and
conductances once, inlet enthalpies included, and solves both sides at
any walls on floats, each solve after its first starting from a
continuation predictor: the last outlets moved along their tangents by
the wall step.  The truth's RK4 stages call it, and ref_output wraps it.
The module also solves the coupled steady-state problem, evaluates the
closed-form steady wall temperatures, and provides a verification
report for the uniqueness properties the models rely on.

Sign conventions: heat rates are positive toward the fluid, so the hot
stream has a negative heat rate while it is being cooled.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atanh, log, nextafter
from typing import Callable

from .correlations import serial_conductance
from .fluids import StreamConfig
from .means import LM_SERIES_SWITCH, heat_rate

__all__ = [
    "BracketError",
    "NoSolutionError",
    "WallState",
    "InletConditions",
    "OutletTemps",
    "Conductances",
    "RefOutputInfo",
    "UniquenessReport",
    "solve_bracketed",
    "output_solver",
    "ref_output",
    "ref_output_detailed",
    "ref_steady_outlets",
    "steady_wall_temps",
    "steady_walls",
    "verify_uniqueness",
]

class BracketError(ValueError):
    """Physical root bracket is inverted; state and inputs inconsistent."""


class NoSolutionError(RuntimeError):
    """Steady-state brackets collapsed without a root."""


@dataclass(frozen=True, slots=True)
class WallState:
    """Dynamic state: wall temperatures at the two ends, in kelvin."""

    T_w1: float
    T_w2: float


@dataclass(frozen=True, slots=True)
class InletConditions:
    """Input vector: intake temperatures and mass flows."""

    T_h1: float  # K
    T_c1: float  # K
    mdot_h: float  # kg/s
    mdot_c: float  # kg/s


@dataclass(frozen=True, slots=True)
class OutletTemps:
    """Output vector: hot and cold outlet temperatures in kelvin."""

    T_h2: float
    T_c2: float


@dataclass(frozen=True, slots=True)
class Conductances:
    """Side conductances (alpha A) and the derived serial overall kA."""

    aA_h: float  # W/K
    aA_c: float  # W/K

    def __post_init__(self):
        if self.aA_h <= 0.0 or self.aA_c <= 0.0:
            raise ValueError(
                f"conductances must be positive, got ({self.aA_h}, {self.aA_c})"
            )

    @property
    def kA(self) -> float:
        """Serial connection of the two thermal resistances."""
        return serial_conductance(self.aA_h, self.aA_c)


@dataclass(frozen=True, slots=True)
class RefOutputInfo:
    """Diagnostics for a reference output evaluation."""

    flagged_hot: bool
    flagged_cold: bool
    residual_hot: float  # W
    residual_cold: float  # W


@dataclass(frozen=True, slots=True)
class UniquenessReport:
    """Result of the steady-state uniqueness verification scan."""

    sign_changes: int
    monotone_hot: bool
    monotone_cold: bool
    rs3_residual: float  # W
    rs4_residual: float  # W
    passed: bool


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


SOLVE_MAX_ITER = 200
NEWTON_MAX_ITER = 8  # warm-started output solves; then the bracket
OUTPUT_FTOL = 1e-6  # W, side residual of the output roots


def solve_bracketed(
    f,
    lo: float,
    hi: float,
    f_lo: float | None = None,
    f_hi: float | None = None,
    xtol: float = 1e-9,
    ftol: float = 1e-6,
):
    """Find a root of f inside [lo, hi] given a sign change.

    Bracketed bisection refined by regula falsi (Illinois weighting keeps
    the secant step from stalling on one side).  Iterates until the
    bracket width drops below xtol and either the residual magnitude
    drops below ftol or the bracket ends are adjacent floats (no float
    lies between them, so the better end is the float nearest the root),
    capped at SOLVE_MAX_ITER.

    Returns (x, f(x), converged, iterations).
    """
    a, b = lo, hi
    fa = f(a) if f_lo is None else f_lo
    fb = f(b) if f_hi is None else f_hi
    if fa == 0.0:
        return a, 0.0, True, 0
    if fb == 0.0:
        return b, 0.0, True, 0
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("no sign change over the bracket")
    if abs(fa) <= abs(fb):
        best_x, best_f = a, fa
    else:
        best_x, best_f = b, fb
    side = 0
    for it in range(1, SOLVE_MAX_ITER + 1):
        denom = fb - fa
        if denom != 0.0:
            xm = (a * fb - b * fa) / denom
        else:
            xm = 0.5 * (a + b)
        if not (min(a, b) < xm < max(a, b)):
            xm = 0.5 * (a + b)
        fm = f(xm)
        if abs(fm) < abs(best_f):
            best_x, best_f = xm, fm
        if fm == 0.0:
            return xm, 0.0, True, it
        if (fm < 0.0) == (fa < 0.0):
            a, fa = xm, fm
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = xm, fm
            if side == 1:
                fa *= 0.5
            side = 1
        if abs(b - a) <= xtol and (abs(best_f) <= ftol or nextafter(a, b) == b):
            return best_x, best_f, True, it
    return best_x, best_f, False, SOLVE_MAX_ITER


# ---------------------------------------------------------------------------
# Output equations
# ---------------------------------------------------------------------------


def _side_residual(curve, mdot: float, h1: float, dT: float, aA: float, lo: float,
                   hi: float, hot: bool):
    """The residual of one output side as a function of its outlet T, on
    _solve_side's arguments, with h(T) = curve(T)[0]:
    R_h(T) = mdot (h(T) - h1) + Q(dT, T - lo, aA) on the hot side,
    R_c(T) = mdot (h(T) - h1) - Q(hi - T, dT, aA) on the cold side."""
    if hot:
        return lambda T: mdot * (curve(T)[0] - h1) + heat_rate(dT, T - lo, aA)
    return lambda T: mdot * (curve(T)[0] - h1) - heat_rate(hi - T, dT, aA)


def _solve_side(curve, mdot: float, h1: float, dT: float, aA: float, lo: float, hi: float,
                hot: bool, guess: float | None):
    """Solve one side residual over its physical bracket [lo, hi].

    The side is its fluid's curve at its pressure (T -> (h, dh/dT)), its
    flow mdot, its inlet enthalpy h1, its fixed temperature difference dT
    (T_h1 - T_w1 on the hot side, T_w2 - T_c1 on the cold side) and its
    conductance aA; _side_residual gives the residual.

    With a guess, Newton runs first, inside the same open interval the
    bracketed search uses, with the residual and its slope written out
    here: h and dh/dT from one curve call, heat_rate's log-mean or
    arithmetic branch with log_mean's series switch and its quotient of
    logarithms where e rounds to +-1, in each side's own argument order,
    and the slope dQ/dz = Q (Q/aA - z) / (z (dT - z)) of
    the log mean (aA/2 on the arithmetic branch) in the side's variable
    difference z (T - lo hot, hi - T cold).  The residual is strictly
    increasing, so an interior iterate whose residual is within
    OUTPUT_FTOL is the root.  A guess outside the interval starts Newton
    clamped to its inner 0.1 % margins.  An iterate that leaves the
    interval, an unusable slope, a stalled step or NEWTON_MAX_ITER
    iterations fall back to the bracketed search below.

    The unrestricted heat rate switches branch exactly on the bracket
    boundary (one temperature difference is zero there), so the endpoint
    signs are read a hair inside the open interior; otherwise the jump
    can mask a genuine interior root.  The transient corner where the
    residual has no interior sign change still clamps to the endpoint
    with the smaller residual magnitude, flagged; so is a search that
    stops at SOLVE_MAX_ITER without converging.

    Returns (T, residual, flagged, q, t1, t2), where q is the side's heat
    rate at T (heat_rate(dT, T - lo, aA) hot, heat_rate(hi - T, dT, aA)
    cold): Newton's own q, the same float operations, or heat_rate at the
    outlet the other paths return.  (t1, t2) is the tangent of the root
    in the walls, dT/dT_w1 and dT/dT_w2 = -(dR/dw)/(dR/dT): on the Newton
    path the slope at the root over the heat rate's partials in its two
    differences, dQ/dz and the same formula with dT and z swapped (aA/2
    on the arithmetic branch); (0.0, 0.0) on the other paths.
    """
    if lo > hi:
        raise BracketError(f"inverted bracket [{lo}, {hi}] K")
    delta = 1e-7 * (hi - lo)
    a, b = lo + delta, hi - delta
    if guess is not None:
        x = guess
        if not a < x < b:
            x = min(max(x, a + 1e-3 * (b - a)), b - 1e-3 * (b - a))
        for _ in range(NEWTON_MAX_ITER):
            if not a < x < b:
                break
            if hot:
                z = x - lo
                z1, z2 = dT, z
            else:
                z = hi - x
                z1, z2 = z, dT
            h, dh = curve(x)
            log_branch = z > 0.0 and dT > 0.0 and z != dT
            if log_branch:
                e = (z1 - z2) / (z1 + z2)
                if abs(z1 / z2 - 1.0) < LM_SERIES_SWITCH:
                    q = aA * (0.5 * (z1 + z2) * (1.0 - e * e / 3.0))
                elif -1.0 < e < 1.0:
                    q = aA * (0.5 * (z1 + z2) * e / atanh(e))
                else:  # e rounds to +-1, where atanh is infinite
                    q = aA * ((z1 - z2) / (log(z1) - log(z2)))
                dq = q * (q / aA - z) / (z * (dT - z))
            else:
                q = aA * 0.5 * (z1 + z2)
                dq = 0.5 * aA
            r = mdot * (h - h1) + (q if hot else -q)
            slope = mdot * dh + dq
            if abs(r) <= OUTPUT_FTOL:
                if not slope > 0.0:
                    return x, r, False, q, 0.0, 0.0
                dq_dT = q * (q / aA - dT) / (dT * (z - dT)) if log_branch else 0.5 * aA
                if hot:
                    return x, r, False, q, dq_dT / slope, dq / slope
                return x, r, False, q, dq / slope, dq_dT / slope
            if not slope > 0.0:
                break
            x_next = x - r / slope
            if x_next == x:
                break
            x = x_next
    f = _side_residual(curve, mdot, h1, dT, aA, lo, hi, hot)
    if lo == hi:
        x, r = lo, f(lo)
        flagged = abs(r) > OUTPUT_FTOL
    else:
        f_a, f_b = f(a), f(b)
        if f_a == 0.0:
            x, r, flagged = a, 0.0, False
        elif f_b == 0.0:
            x, r, flagged = b, 0.0, False
        elif (f_a > 0.0) == (f_b > 0.0):
            x, r = (lo, f_a) if abs(f_a) <= abs(f_b) else (hi, f_b)
            flagged = True
        else:
            x, r, converged, _ = solve_bracketed(f, a, b, f_a, f_b, ftol=OUTPUT_FTOL)
            flagged = not converged
    q = heat_rate(dT, x - lo, aA) if hot else heat_rate(hi - x, dT, aA)
    return x, r, flagged, q, 0.0, 0.0


def _side_constants(u: InletConditions, cond: Conductances,
                    hot: StreamConfig, cold: StreamConfig):
    """(curve, flow, inlet enthalpy, conductance) of the hot and of the
    cold side at fixed (u, cond): what the output solves at any walls
    share, each inlet enthalpy evaluated once, each curve the stream's
    own.  The inlet enthalpies come first, so an inlet or a pressure
    outside a fluid's hull raises there, before a curve is built."""
    h_h1 = hot.fluid.enthalpy(u.T_h1, hot.pressure)
    h_c1 = cold.fluid.enthalpy(u.T_c1, cold.pressure)
    return (hot.curve, u.mdot_h, h_h1, cond.aA_h), (cold.curve, u.mdot_c, h_c1, cond.aA_c)


def output_solver(u: InletConditions, cond: Conductances, hot: StreamConfig,
                  cold: StreamConfig, start: OutletTemps | None = None
                  ) -> Callable[[float, float], tuple[float, float, float, float]]:
    """The output solve of ref_output at fixed (u, cond), on floats.

    solve(w1, w2) gives (T_h2, T_c2, Q_h, Q_c) at the walls (w1, w2):
    the two side solves of ref_output_detailed, and the heat rates into
    the hot and the cold fluid at those outlets,
    Q_h = -Q(T_h1 - T_w1, T_h2 - T_w2, aA_h) and
    Q_c = Q(T_w1 - T_c2, T_w2 - T_c1, aA_c), which the side solves form.

    The solver carries its own outlet guesses.  The first solve starts
    from ``start`` (None for a bracketed search).  Each later solve starts
    from a continuation predictor: the last roots plus their tangents in
    the walls (from _solve_side) times the step from the last walls,
    T + (t1 (w1 - w1') + t2 (w2 - w2')).  Only the start moves; each side
    still closes within OUTPUT_FTOL.
    """
    (c_h, mdot_h, h_h1, aA_h), (c_c, mdot_c, h_c1, aA_c) = _side_constants(u, cond, hot, cold)
    T_h1, T_c1 = u.T_h1, u.T_c1
    g_h, g_c = (None, None) if start is None else (start.T_h2, start.T_c2)
    # the last walls (None before the first solve) and the tangents there
    v1 = v2 = None
    t_h1 = t_h2 = t_c1 = t_c2 = 0.0

    def solve(w1: float, w2: float) -> tuple[float, float, float, float]:
        nonlocal g_h, g_c, v1, v2, t_h1, t_h2, t_c1, t_c2
        if v1 is not None:
            d1, d2 = w1 - v1, w2 - v2
            g_h += t_h1 * d1 + t_h2 * d2
            g_c += t_c1 * d1 + t_c2 * d2
        g_h, _, _, q_h, t_h1, t_h2 = _solve_side(c_h, mdot_h, h_h1, T_h1 - w1, aA_h, w2, T_h1,
                                                 True, g_h)
        g_c, _, _, q_c, t_c1, t_c2 = _solve_side(c_c, mdot_c, h_c1, w2 - T_c1, aA_c, T_c1, w1,
                                                 False, g_c)
        v1, v2 = w1, w2
        return g_h, g_c, -q_h, q_c

    return solve


def ref_output_detailed(
    x: WallState,
    u: InletConditions,
    cond: Conductances,
    hot: StreamConfig,
    cold: StreamConfig,
    guess: OutletTemps | None = None,
) -> tuple[OutletTemps, RefOutputInfo]:
    """Reference outlet temperatures with solver diagnostics.

    The hot outlet is the root of
        R_h(T) = mdot_h * (h_h(T) - h_h(T_h1)) + Q(T_h1 - T_w1, T - T_w2, aA_h)
    on [T_w2, T_h1]; the cold outlet is the root of
        R_c(T) = mdot_c * (h_c(T) - h_c(T_c1)) - Q(T_w1 - T, T_w2 - T_c1, aA_c)
    on [T_c1, T_w1].  Both residuals are strictly increasing in their
    unknown, so the roots are unique where they exist.  A guess, such as
    the outlets of the previous call in a simulation, starts each side
    with Newton; without one, each side is a bracketed search.
    """
    (c_h, mdot_h, h_h1, aA_h), (c_c, mdot_c, h_c1, aA_c) = _side_constants(u, cond, hot, cold)
    T_h1, T_c1, w1, w2 = u.T_h1, u.T_c1, x.T_w1, x.T_w2
    g_h = g_c = None
    if guess is not None:
        g_h, g_c = guess.T_h2, guess.T_c2
    T_h2, r_h, flag_h = _solve_side(c_h, mdot_h, h_h1, T_h1 - w1, aA_h, w2, T_h1, True, g_h)[:3]
    T_c2, r_c, flag_c = _solve_side(c_c, mdot_c, h_c1, w2 - T_c1, aA_c, T_c1, w1, False, g_c)[:3]
    return OutletTemps(T_h2, T_c2), RefOutputInfo(flag_h, flag_c, r_h, r_c)


def ref_output(
    x: WallState,
    u: InletConditions,
    cond: Conductances,
    hot: StreamConfig,
    cold: StreamConfig,
    guess: OutletTemps | None = None,
) -> OutletTemps:
    """Reference outlet temperatures: output_solver's side solves at the
    walls x from the guess, without ref_output_detailed's diagnostics."""
    T_h2, T_c2, _, _ = output_solver(u, cond, hot, cold, guess)(x.T_w1, x.T_w2)
    return OutletTemps(T_h2, T_c2)


# ---------------------------------------------------------------------------
# Steady state
# ---------------------------------------------------------------------------


def _steady_outer_residual(u, kA, hot, cold):
    """Build the outer 1-D steady residual in T_c2s.

    For each trial cold outlet, the paired hot outlet closes the overall
    energy balance, found by inverting the hot enthalpy; the outer
    residual compares the cold enthalpy rate with the overall heat
    transfer rate.  Infeasible trial points (cold outlet hotter than the
    energy balance allows) clamp the pair to the intake floor, which
    keeps the outer residual monotone.

    Returns (phi, pair) callables.
    """
    hf, cf = hot.fluid, cold.fluid
    p_h, p_c = hot.pressure, cold.pressure
    T_h1, T_c1 = u.T_h1, u.T_c1
    h_h1 = hf.enthalpy(T_h1, p_h)
    h_c1 = cf.enthalpy(T_c1, p_c)
    mdot_h, mdot_c = u.mdot_h, u.mdot_c
    # the hot enthalpy rate at the intake floor, the most the hot side gives
    hdot_h_floor = mdot_h * (hf.enthalpy(T_c1, p_h) - h_h1)

    def pair(T_c2s):
        q = mdot_c * (cf.enthalpy(T_c2s, p_c) - h_c1)
        if hdot_h_floor + q >= 0.0:
            return T_c1
        return hf.temperature(h_h1 - q / mdot_h, p_h)

    def phi(T_c2s):
        # pair written out, so the cold enthalpy rate is taken once
        q = mdot_c * (cf.enthalpy(T_c2s, p_c) - h_c1)
        T_h2s = T_c1 if hdot_h_floor + q >= 0.0 else hf.temperature(h_h1 - q / mdot_h, p_h)
        return q - heat_rate(T_h1 - T_c2s, T_h2s - T_c1, kA)

    return phi, pair


def _feasible_cold_outlet_cap(
    u: InletConditions, hot: StreamConfig, cold: StreamConfig
) -> float:
    """Upper bound for the steady cold outlet temperature.

    Beyond this point the demanded cold duty exceeds the full hot side
    cooldown, the energy pairing clamps, and the outer residual no longer
    reflects a physical balance (spurious roots can appear there at high
    transfer capability).  The steady root always lies at or below the
    cap, so the outer bracket stops there.
    """
    q_supply = u.mdot_h * (
        hot.fluid.enthalpy(u.T_h1, hot.pressure)
        - hot.fluid.enthalpy(u.T_c1, hot.pressure)
    )
    h_c1 = cold.fluid.enthalpy(u.T_c1, cold.pressure)
    if u.mdot_c * (cold.fluid.enthalpy(u.T_h1, cold.pressure) - h_c1) <= q_supply:
        return u.T_h1
    return cold.fluid.temperature(h_c1 + q_supply / u.mdot_c, cold.pressure)


def ref_steady_outlets(
    u: InletConditions,
    kA: float,
    hot: StreamConfig,
    cold: StreamConfig,
) -> OutletTemps:
    """Steady outlet temperatures of the reference model.

    Solved as a 1-D monotone root problem: the unknown is the cold outlet
    on the energy-feasible part of [T_c1, T_h1], paired with the hot
    outlet through the overall energy balance.  The pairing structure
    makes the residual strictly increasing, so the root is unique.  The
    residual is negative at T_c1 (no transfer, positive duty), so that
    end closes the bracket from below.  Forward duty, T_h1 > T_c1, is
    required; other inlets raise ValueError.
    """
    if kA <= 0.0:
        raise ValueError(f"kA must be positive, got {kA}")
    if not u.T_h1 > u.T_c1:
        raise ValueError(f"the reference model needs T_h1 > T_c1, got T_h1 = {u.T_h1!r} K "
                         f"and T_c1 = {u.T_c1!r} K")
    phi, pair = _steady_outer_residual(u, kA, hot, cold)
    lo, f_lo = u.T_c1, phi(u.T_c1)
    cap = _feasible_cold_outlet_cap(u, hot, cold)
    hi, f_hi = cap, phi(cap)
    if f_hi <= 0.0:
        # The cap endpoint evaluates with a clamped pairing on the
        # arithmetic-mean branch (second difference exactly zero), which
        # can mask the sign change at high transfer capability; step
        # inward geometrically.
        shrink = cap - u.T_c1
        for _ in range(60):
            shrink *= 0.01
            cand = cap - shrink
            f_c = phi(cand)
            if f_c > 0.0:
                hi, f_hi = cand, f_c
                break
        else:
            raise NoSolutionError("steady outer bracket collapsed without sign change")
    T_c2s, _, _, _ = solve_bracketed(phi, lo, hi, f_lo, f_hi, xtol=1e-9, ftol=5e-6)
    return OutletTemps(pair(T_c2s), T_c2s)


def steady_wall_temps(
    outlets_s: OutletTemps, u: InletConditions, cond: Conductances
) -> WallState:
    """Closed-form steady wall temperatures."""
    return WallState(*steady_walls(u.T_h1, u.T_c1, outlets_s.T_h2, outlets_s.T_c2,
                                   cond.aA_h, cond.aA_c))


def steady_walls(T_h1: float, T_c1: float, T_h2s: float, T_c2s: float,
                 aA_h: float, aA_c: float) -> tuple[float, float]:
    """steady_wall_temps on floats.

    Convex combinations weighted by the cold-side share of the total
    conductance; they zero the wall flux balances at both ends.
    """
    w = aA_c / (aA_h + aA_c)
    return T_h1 + w * (T_c2s - T_h1), T_h2s + w * (T_c1 - T_h2s)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _strictly_increasing(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def verify_uniqueness(
    u: InletConditions,
    cond: Conductances,
    hot: StreamConfig,
    cold: StreamConfig,
    grid_n: int = 200,
) -> UniquenessReport:
    """Numerical verification of steady-state and output uniqueness.

    Scans the outer steady residual for sign changes (exactly one
    expected), checks that both output residuals are strictly increasing
    over their brackets at the steady wall temperatures, and evaluates
    the wall flux balance residuals at the closed-form wall temperatures.
    Like ref_steady_outlets, it raises ValueError unless T_h1 > T_c1.
    """
    if grid_n < 100:
        raise ValueError("grid_n must be at least 100")
    kA = cond.kA
    outlets_s = ref_steady_outlets(u, kA, hot, cold)  # checks T_h1 > T_c1 first
    phi, _ = _steady_outer_residual(u, kA, hot, cold)
    # Scan only the energy-feasible part of the bracket; past the cap the
    # pairing clamps and the residual stops being meaningful.
    scan_span = _feasible_cold_outlet_cap(u, hot, cold) - u.T_c1
    ts = [
        u.T_c1 + (scan_span * (1.0 - 1e-7)) * k / (grid_n - 1) for k in range(grid_n)
    ]
    vals = [phi(t) for t in ts]
    sign_changes = 0
    prev = vals[0]
    for v in vals[1:]:
        if prev == 0.0 or (prev > 0.0) != (v > 0.0):
            sign_changes += 1
        prev = v

    walls_s = steady_wall_temps(outlets_s, u, cond)
    (c_h, mdot_h, h_h1, aA_h), (c_c, mdot_c, h_c1, aA_c) = _side_constants(u, cond, hot, cold)
    res_h = _side_residual(c_h, mdot_h, h_h1, u.T_h1 - walls_s.T_w1, aA_h, walls_s.T_w2, u.T_h1,
                           True)
    res_c = _side_residual(c_c, mdot_c, h_c1, walls_s.T_w2 - u.T_c1, aA_c, u.T_c1, walls_s.T_w1,
                           False)

    # The wall-side bracket endpoints sit exactly on the arithmetic-mean
    # fallback (one temperature difference is zero there), so the
    # monotonicity scan covers the open interior.
    hot_lo = walls_s.T_w2 + (u.T_h1 - walls_s.T_w2) * 1e-7
    hot_ts = [
        hot_lo + (u.T_h1 - hot_lo) * k / (grid_n - 1) for k in range(grid_n)
    ]
    cold_hi = walls_s.T_w1 - (walls_s.T_w1 - u.T_c1) * 1e-7
    cold_ts = [
        u.T_c1 + (cold_hi - u.T_c1) * k / (grid_n - 1) for k in range(grid_n)
    ]
    monotone_hot = _strictly_increasing([res_h(t) for t in hot_ts])
    monotone_cold = _strictly_increasing([res_c(t) for t in cold_ts])

    q_overall = heat_rate(
        u.T_h1 - outlets_s.T_c2, outlets_s.T_h2 - u.T_c1, kA
    )
    rs3 = q_overall - heat_rate(
        u.T_h1 - walls_s.T_w1, outlets_s.T_h2 - walls_s.T_w2, cond.aA_h
    )
    rs4 = q_overall - heat_rate(
        walls_s.T_w1 - outlets_s.T_c2, walls_s.T_w2 - u.T_c1, cond.aA_c
    )

    passed = (
        sign_changes == 1
        and monotone_hot
        and monotone_cold
        and abs(rs3) < 1e-6
        and abs(rs4) < 1e-6
    )
    return UniquenessReport(
        sign_changes=sign_changes,
        monotone_hot=monotone_hot,
        monotone_cold=monotone_cold,
        rs3_residual=rs3,
        rs4_residual=rs4,
        passed=passed,
    )
