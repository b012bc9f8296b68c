"""Reference forms of rules that the library computes fused.

approx_model.approx_side selects beta, takes the closed-form root and
forms the weighted mean in one call, and wall_dynamics.sector_gain
decides the sector inside its gain.  The tests pin those fused calls
against the rules written out one at a time here: select_beta, then
g_closed_form, then weighted_mean, and classify_sector.
"""

from hxtwin.approx_model import BetaBranch, BetaSelection
from hxtwin.means import DomainError, arith_mean, geom_mean
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
