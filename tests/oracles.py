"""Reference forms of rules that the library computes fused.

approx_model.approx_side selects beta, takes the closed-form root and
forms the weighted mean in one call, wall_dynamics.sector_gain decides
the sector inside its gain, and reference_model._solve_side runs Newton
on a side residual and its slope written out inline.  The tests pin
those fused calls against the rules written out one at a time here:
select_beta, then g_closed_form, then weighted_mean; classify_sector;
and the side residual with its slope as closures over heat_rate and
heat_rate_slope, solved by newton_side with solve_side's fallback.  The
fluids' enthalpy and enthalpy_slope find the table cell and run Horner
inline; table_enthalpy, table_enthalpy_slope, poly_enthalpy and poly_cp
are those rules as separate steps.
"""

from bisect import bisect_right

from hxtwin.approx_model import BetaBranch, BetaSelection
from hxtwin.fluids import OutOfRangeError
from hxtwin.means import DomainError, arith_mean, geom_mean, heat_rate
from hxtwin.reference_model import NEWTON_MAX_ITER, OUTPUT_FTOL, BracketError, solve_bracketed
from hxtwin.wall_dynamics import Sector

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
    """The residual of one output side and the residual with its slope,
    as functions of the outlet T: R_h(T) = mdot (h(T) - h1) + Q(dT, T -
    lo, aA) on the hot side [lo, hi] = [T_w2, T_h1], R_c(T) = mdot (h(T)
    - h1) - Q(hi - T, dT, aA) on the cold side [T_c1, T_w1]."""
    if hot:
        def res(T):
            return mdot * (fluid.enthalpy(T, p) - h1) + heat_rate(dT, T - lo, aA)

        def res_slope(T):
            z = T - lo
            q = heat_rate(dT, z, aA)
            r = mdot * (fluid.enthalpy(T, p) - h1) + q
            return r, mdot * fluid.enthalpy_slope(T, p) + heat_rate_slope(z, dT, aA, q)
    else:
        def res(T):
            return mdot * (fluid.enthalpy(T, p) - h1) - heat_rate(hi - T, dT, aA)

        def res_slope(T):
            z = hi - T
            q = heat_rate(z, dT, aA)
            r = mdot * (fluid.enthalpy(T, p) - h1) - q
            return r, mdot * fluid.enthalpy_slope(T, p) + heat_rate_slope(z, dT, aA, q)
    return res, res_slope


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


def solve_side(f, f_slope, lo, hi, guess):
    """One side solve: newton_side from the guess (clamped into the inner
    0.1 % margins of the open bracket), then the bracketed search, reading
    the endpoint signs a hair inside [lo, hi].  Returns (T, residual,
    flagged)."""
    if lo > hi:
        raise BracketError(f"inverted bracket [{lo}, {hi}] K")
    if lo == hi:
        r = f(lo)
        return lo, r, abs(r) > OUTPUT_FTOL
    delta = 1e-7 * (hi - lo)
    a, b = lo + delta, hi - delta
    if guess is not None:
        if not a < guess < b:
            guess = min(max(guess, a + 1e-3 * (b - a)), b - 1e-3 * (b - a))
        root = newton_side(f_slope, a, b, guess)
        if root is not None:
            return (*root, False)
    f_a, f_b = f(a), f(b)
    if f_a == 0.0:
        return a, 0.0, False
    if f_b == 0.0:
        return b, 0.0, False
    if (f_a > 0.0) == (f_b > 0.0):
        if abs(f_a) <= abs(f_b):
            return lo, f_a, True
        return hi, f_b, True
    x, fx, converged, _ = solve_bracketed(f, a, b, f_a, f_b, ftol=OUTPUT_FTOL)
    return x, fx, not converged


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
