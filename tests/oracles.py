"""Reference forms of rules that the library computes fused.

approx_model.approx_side selects beta, takes the closed-form root and
forms the weighted mean in one call, wall_dynamics.sector_gain decides
the sector inside its gain, reference_model._solve_side runs Newton on a
side residual and its slope written out inline and gives the tangent of
its root in the walls, and the truth's wall_dynamics.reference_wall_rhs
takes outlets and heat rates from one float output solve that predicts
each start along that tangent.  The tests pin those fused calls against
the rules written out one at a time here: select_beta, then
g_closed_form, then weighted_mean; classify_sector; the side residual
with its slope and its tangent as closures over heat_rate and
heat_rate_slope, solved by newton_side with solve_side's fallback; and
reference_wall_rhs, the stage on ref_output's objects with heat_rate and
wall_drift_rate, its guesses moved along the tangent closure.  The
fluids' enthalpy and curve find the table cell and run Horner inline;
table_enthalpy, table_enthalpy_slope, poly_enthalpy and poly_cp are
those rules as separate steps.

The filter's predict and update run on floats: wall_dynamics.ApproxStage
writes partial_rows and rhs_rows out inline for the F rows, and
ekf.covariance_step takes the covariance RK4 step on P's unique entries.
rhs_rows, horner_covariance_step (the numpy Horner step with F held) and
kalman_gain (a linear solve) are the parent forms those are pinned to.
"""

import math
from bisect import bisect_right

import numpy as np

from hxtwin.approx_model import BetaBranch, BetaSelection
from hxtwin.fluids import OutOfRangeError
from hxtwin.means import DomainError, arith_mean, geom_mean, heat_rate
from hxtwin.reference_model import (
    NEWTON_MAX_ITER,
    OUTPUT_FTOL,
    BracketError,
    OutletTemps,
    WallState,
    ref_output,
    ref_steady_outlets,
    solve_bracketed,
    steady_wall_temps,
)
from hxtwin.ekf import SingularInnovationCovarianceError
from hxtwin.wall_dynamics import TDW_LOWER_BOUND, Sector, sector_gain

# The two outcomes without a beta.
BETA_ZERO = BetaSelection(0.0, BetaBranch.ZERO, False)
BETA_EMPTY = BetaSelection(0.0, BetaBranch.ZERO, True)


def select_beta(dT_I, dT_w, aA, C_p, lm: BetaSelection) -> BetaSelection:
    """The published beta rule: beta_LM (the selection ``lm``) if it lies
    in the feasible set, else beta*_2 if positive, else the empty-set
    fallback; beta = 0 for dT_I <= 0.  The feasible set is where
    0.5*aA*(1 - beta)*dT_I <= slack = C_p*(dT_I + dT_w), empty for
    slack < 0."""
    if dT_I <= 0.0:
        return BETA_ZERO
    slack = C_p * (dT_I + dT_w)
    if slack < 0.0:
        return BETA_EMPTY
    if lm.beta <= 1.0 and 0.5 * aA * (1.0 - lm.beta) * dT_I <= slack:
        return lm
    b_star2 = 1.0 - 2.0 * slack / (dT_I * aA)
    if b_star2 > 0.0:
        return BetaSelection(b_star2, BetaBranch.BETA_STAR2, False)
    return BETA_EMPTY


def weighted_mean(z1: float, z2: float, beta: float) -> float:
    """Weighted mean WM = beta * GM + (1 - beta) * AM, beta in [0, 1];
    beta = 0 gives the arithmetic mean, for any sign of z1 * z2."""
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    if beta == 0.0:
        return arith_mean(z1, z2)
    return beta * geom_mean(z1, z2) + (1.0 - beta) * arith_mean(z1, z2)


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


def reference_wall_rhs(u, cond, hot, cold, cfg, start=None):
    """The truth's wall rates rhs(w1, w2) on objects: each stage builds a
    WallState, calls ref_output from a guess, and forms both heat rates
    with heat_rate and the drift with wall_drift_rate.

    The first stage's guess is start.  Each later stage's guess is the
    previous stage's outlets moved along their tangent in the walls,
    T + (t1 (w1 - w1') + t2 (w2 - w2')), with (t1, t2) the tangent
    closure of side_closures at those outlets; after a stage solved from
    no guess, a bracketed search, the tangent is zero.  (A Newton that
    falls back also gives a zero tangent in the library; the shipped
    truth runs have none, tests/test_harness.py checks.)"""
    xs = steady_wall_temps(ref_steady_outlets(u, cond.kA, hot, cold), u, cond)
    h_h1 = hot.fluid.enthalpy(u.T_h1, hot.pressure)
    h_c1 = cold.fluid.enthalpy(u.T_c1, cold.pressure)
    guess, last = start, None

    def rhs(w1, w2):
        nonlocal guess, last
        if last is not None:
            outs, v1, v2, (t_h1, t_h2), (t_c1, t_c2) = last
            d1, d2 = w1 - v1, w2 - v2
            guess = OutletTemps(outs.T_h2 + (t_h1 * d1 + t_h2 * d2),
                                outs.T_c2 + (t_c1 * d1 + t_c2 * d2))
        outs = ref_output(WallState(w1, w2), u, cond, hot, cold, guess)
        if guess is None:
            tangents = (0.0, 0.0), (0.0, 0.0)
        else:
            tangents = (
                side_closures(hot.fluid, hot.pressure, u.mdot_h, h_h1, u.T_h1 - w1, cond.aA_h,
                              w2, u.T_h1, True)[2](outs.T_h2),
                side_closures(cold.fluid, cold.pressure, u.mdot_c, h_c1, w2 - u.T_c1,
                              cond.aA_c, u.T_c1, w1, False)[2](outs.T_c2))
        last = (outs, w1, w2, *tangents)
        Q_h = -heat_rate(u.T_h1 - w1, outs.T_h2 - w2, cond.aA_h)
        Q_c = heat_rate(w1 - outs.T_c2, w2 - u.T_c1, cond.aA_c)
        e1, e2 = xs.T_w1 - w1, xs.T_w2 - w2
        a = sector_gain(e1, e2, wall_drift_rate(Q_h, Q_c, cfg.theta7))[1]
        return a * e1, a * e2

    return rhs


def heat_rate_slope(z1: float, z2: float, z3: float, q: float) -> float:
    """Partial derivative of heat_rate(z1, z2, z3) in z1, given its value q.

    On the log-mean branch, with M = q / z3 the log mean,
    dM/dz1 = M (M - z1) / (z1 (z2 - z1)); on the arithmetic branch the
    derivative is z3 / 2.  heat_rate is symmetric in (z1, z2), so the
    derivative in z2 is heat_rate_slope(z2, z1, z3, q).
    """
    if z1 > 0.0 and z2 > 0.0 and z1 != z2:
        return q * (q / z3 - z1) / (z1 * (z2 - z1))
    return 0.5 * z3


def side_closures(fluid, p, mdot, h1, dT, aA, lo, hi, hot):
    """The residual of one output side, the residual with its slope, and
    the tangent of a root in the walls, as functions of the outlet T:
    R_h(T) = mdot (h(T) - h1) + Q(dT, T - lo, aA) on the hot side [lo, hi]
    = [T_w2, T_h1], with dT = T_h1 - T_w1; R_c(T) = mdot (h(T) - h1) -
    Q(hi - T, dT, aA) on the cold side [T_c1, T_w1], with dT = T_w2 -
    T_c1.

    The tangent is the implicit function theorem on R(T; T_w1, T_w2) = 0,
    (dT/dT_w1, dT/dT_w2) = -(dR/dT_w1, dR/dT_w2) / (dR/dT), where the
    wall partials are heat_rate_slope in each of the heat rate's two
    differences; (0.0, 0.0) where dR/dT is not positive."""
    if hot:
        def res(T):
            return mdot * (fluid.enthalpy(T, p) - h1) + heat_rate(dT, T - lo, aA)

        def res_slope(T):
            z = T - lo
            q = heat_rate(dT, z, aA)
            r = mdot * (fluid.enthalpy(T, p) - h1) + q
            return r, mdot * fluid.enthalpy_slope(T, p) + heat_rate_slope(z, dT, aA, q)

        def tangent(T):
            # dT_w1 moves dT = T_h1 - T_w1 by -1, dT_w2 moves z = T - T_w2 by -1
            z = T - lo
            q = heat_rate(dT, z, aA)
            dR_dT = mdot * fluid.enthalpy_slope(T, p) + heat_rate_slope(z, dT, aA, q)
            dR_dw1, dR_dw2 = -heat_rate_slope(dT, z, aA, q), -heat_rate_slope(z, dT, aA, q)
            if not dR_dT > 0.0:
                return 0.0, 0.0
            return -dR_dw1 / dR_dT, -dR_dw2 / dR_dT
    else:
        def res(T):
            return mdot * (fluid.enthalpy(T, p) - h1) - heat_rate(hi - T, dT, aA)

        def res_slope(T):
            z = hi - T
            q = heat_rate(z, dT, aA)
            r = mdot * (fluid.enthalpy(T, p) - h1) - q
            return r, mdot * fluid.enthalpy_slope(T, p) + heat_rate_slope(z, dT, aA, q)

        def tangent(T):
            # dT_w1 moves z = T_w1 - T by +1, dT_w2 moves dT = T_w2 - T_c1 by +1
            z = hi - T
            q = heat_rate(z, dT, aA)
            dR_dT = mdot * fluid.enthalpy_slope(T, p) + heat_rate_slope(z, dT, aA, q)
            dR_dw1, dR_dw2 = -heat_rate_slope(z, dT, aA, q), -heat_rate_slope(dT, z, aA, q)
            if not dR_dT > 0.0:
                return 0.0, 0.0
            return -dR_dw1 / dR_dT, -dR_dw2 / dR_dT
    return res, res_slope, tangent


def newton_side(f_slope, a, b, x):
    """Newton from x on a side residual, inside the open interval (a, b).
    Returns (T, residual), or None when an iterate leaves (a, b), the
    slope is unusable, a step stalls, or NEWTON_MAX_ITER iterations pass
    without convergence."""
    for _ in range(NEWTON_MAX_ITER):
        if not a < x < b:
            return None
        r, slope = f_slope(x)
        if abs(r) <= OUTPUT_FTOL:
            return x, r
        if not slope > 0.0:
            return None
        x_next = x - r / slope
        if x_next == x:
            return None
        x = x_next
    return None


def solve_side(f, f_slope, tangent, lo, hi, guess):
    """One side solve: newton_side from the guess (clamped into the inner
    0.1 % margins of the open bracket), then the bracketed search, reading
    the endpoint signs a hair inside [lo, hi].  Returns (T, residual,
    flagged, t1, t2), with (t1, t2) = tangent(T) at a Newton root and
    (0.0, 0.0) on every other path."""
    if lo > hi:
        raise BracketError(f"inverted bracket [{lo}, {hi}] K")
    if lo == hi:
        r = f(lo)
        return lo, r, abs(r) > OUTPUT_FTOL, 0.0, 0.0
    delta = 1e-7 * (hi - lo)
    a, b = lo + delta, hi - delta
    if guess is not None:
        if not a < guess < b:
            guess = min(max(guess, a + 1e-3 * (b - a)), b - 1e-3 * (b - a))
        root = newton_side(f_slope, a, b, guess)
        if root is not None:
            return (*root, False, *tangent(root[0]))
    f_a, f_b = f(a), f(b)
    if f_a == 0.0:
        return a, 0.0, False, 0.0, 0.0
    if f_b == 0.0:
        return b, 0.0, False, 0.0, 0.0
    if (f_a > 0.0) == (f_b > 0.0):
        if abs(f_a) <= abs(f_b):
            return lo, f_a, True, 0.0, 0.0
        return hi, f_b, True, 0.0, 0.0
    x, fx, converged, _ = solve_bracketed(f, a, b, f_a, f_b, ftol=OUTPUT_FTOL)
    return x, fx, not converged, 0.0, 0.0


def table_cell(model, T):
    """Index i of the T cell [T_i, T_i+1] of a Tabulated model holding T."""
    Tg = model.T_grid
    if not Tg[0] <= T <= Tg[-1]:
        raise OutOfRangeError(f"T={T} K outside table hull [{Tg[0]}, {Tg[-1]}] K")
    i = bisect_right(Tg, T) - 1
    return i if i < len(Tg) - 2 else len(Tg) - 2


def table_enthalpy(model, T, p):
    """Linear in T over the cell of the pressure slice."""
    i = table_cell(model, T)
    H = model._slice(p)
    Tg = model.T_grid
    tt = (T - Tg[i]) / (Tg[i + 1] - Tg[i])
    return (1.0 - tt) * H[i] + tt * H[i + 1]


def table_enthalpy_slope(model, T, p):
    i = table_cell(model, T)
    H = model._slice(p)
    Tg = model.T_grid
    return (H[i + 1] - H[i]) / (Tg[i + 1] - Tg[i])


def _check_poly_hull(hull_T, T):
    if not hull_T[0] <= T <= hull_T[1]:
        raise OutOfRangeError(f"T={T} K outside model hull [{hull_T[0]}, {hull_T[1]}] K")


def _horner(coeffs, T):
    """sum c_k T^k over the ascending coefficients, highest power first."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * T + c
    return acc


def poly_cp(coeffs, hull_T, T):
    """cp of a ThermallyPerfect model with ascending cp_coeffs."""
    _check_poly_hull(hull_T, T)
    return _horner(coeffs, T)


def poly_enthalpy(coeffs, hull_T, T):
    """The antiderivative of cp, T * (sum c_k T^k / (k + 1)), less its
    value at the lower hull edge."""
    _check_poly_hull(hull_T, T)
    ints = [c / (i + 1) for i, c in enumerate(coeffs)]
    return _horner(ints, T) * T - _horner(ints, hull_T[0]) * hull_T[0]


def rhs_rows(e1, e2, sector, a, tdw, dQ_h, dQ_c, theta7, dxs):
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
    if sector is Sector.V:
        rest = [0.0] * (len(g) - 2)
        return [2.0 * g[0], 0.0, *rest], [0.0, 2.0 * g[1], *rest]
    # the partials a_e1, a_e2, a_t of a in e1, e2 and the drift
    if sector is Sector.I or sector is Sector.III:
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


def horner_covariance_step(P, F, Q, h):
    """One RK4 step of Pdot = F P + P F' + Q with F held, as numpy arrays:
    P + h (k + h/2 L(k + h/3 L(k + h/4 L(k)))) with L(M) = F M + M F' and
    k = L(P) + Q."""
    def lyap(M):
        G = F @ M
        return G + G.T

    k = lyap(P) + Q
    return P + h * (k + (h / 2.0) * lyap(k + (h / 3.0) * lyap(k + (h / 4.0) * lyap(k))))


def kalman_gain(P, H, R_disc):
    """K = P H' (H P H' + R_disc)^-1 via a linear solve."""
    S = H @ P @ H.T + R_disc
    try:
        K = np.linalg.solve(S.T, (P @ H.T).T).T
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationCovarianceError(str(exc)) from exc
    if not np.all(np.isfinite(K)):
        raise SingularInnovationCovarianceError(
            "innovation covariance produced a non-finite gain"
        )
    return K
