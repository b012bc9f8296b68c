"""Tests for the one-step approximate model and its beta selection."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxtwin.approx_model import (
    ApproxEvaluation,
    BetaBranch,
    BetaSelection,
    CpParams,
    approx_output,
    approx_side,
    approx_steady_selfconsistent,
    evaluate_approx,
    g_closed_form,
    steady_outlets,
    steady_terms,
    update_cp_params,
)
from hxtwin.fluids import CaloricallyPerfect, StreamConfig
from hxtwin.means import DomainError, arith_mean, geom_mean, log_mean
from hxtwin.reference_model import (
    Conductances,
    InletConditions,
    OutletTemps,
    WallState,
    ref_output,
    ref_steady_outlets,
    steady_wall_temps,
)
from hxtwin.sampledata import make_coolant_model
from oracles import beta_lm_value, g_partials, select_beta, weighted_mean


def perfect_streams(cp_h=1000.0, cp_c=2000.0):
    return (
        StreamConfig(CaloricallyPerfect(cp_h), 1.0e6),
        StreamConfig(CaloricallyPerfect(cp_c), 5.0e5),
    )


def universal_residual(dT_I, dT_w, aA, C_p, dT_II, beta):
    """R~ = C_p*(dT_I - dT_II + dT_w) - aA*WM(dT_I, dT_II), whose root in
    dT_II g_closed_form returns."""
    return C_p * (dT_I - dT_II + dT_w) - aA * weighted_mean(dT_I, dT_II, beta)


def steady_outlets_at(u, kA, cp):
    """steady_outlets at the inlets u, with the steady mean cps of cp."""
    return OutletTemps(*steady_outlets(
        u.T_h1, u.T_c1, u.mdot_h * cp.theta5, u.mdot_c * cp.theta6, kA))


def terms_at(u, cond_out, cp, cond_steady=None):
    """evaluate_approx's terms at the output conductances cond_out and the
    steady ones cond_steady, which default to cond_out."""
    s = cond_steady or cond_out
    return (cond_out.aA_h, cond_out.aA_c, u.mdot_c, *steady_terms(
        u.T_h1, u.T_c1, u.mdot_h * cp.theta5, u.mdot_c * cp.theta6, s.aA_h, s.aA_c))


def beta_lm_selection(steady_dT_Is, steady_dT_IIs):
    """The beta_LM candidate of approx_side, from the steady differences."""
    return BetaSelection(beta_lm_value(steady_dT_Is, steady_dT_IIs), BetaBranch.BETA_LM, False)


# ---------------------------------------------------------------------------
# Closed-form root


def test_g_beta_zero_worked_example():
    # C_p = 1000, aA = 500, dT_I = 10, dT_w = 2, beta = 0:
    # xi1 = 2500, G = 12 - 500*22/2500 = 7.6 K, and the residual
    # 1000*(10 - 7.6 + 2) - 500*(10 + 7.6)/2 closes exactly.
    side = (10.0, 2.0, 500.0, 1000.0)  # dT_I, dT_w, aA, C_p
    g = g_closed_form(*side, 0.0)
    assert g == pytest.approx(7.6, abs=1e-12)
    assert universal_residual(*side, g, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_g_beta_zero_linear_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        dT_I = rng.uniform(-20.0, 40.0)
        dT_w = rng.uniform(-20.0, 40.0)
        aA = rng.uniform(50.0, 3.0e4)
        C_p = rng.uniform(100.0, 1.0e5)
        # Independent oracle: solve C_p*(dT_I - x + dT_w) = aA*(dT_I + x)/2.
        oracle = (2.0 * C_p * (dT_I + dT_w) - aA * dT_I) / (2.0 * C_p + aA)
        g = g_closed_form(dT_I, dT_w, aA, C_p, 0.0)
        assert g == pytest.approx(oracle, abs=1e-9)


def test_g_zeroes_residual_over_feasible_samples():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        dT_I = rng.uniform(0.5, 40.0)
        dT_w = rng.uniform(-0.9 * dT_I, 30.0)  # keeps the feasible set nonempty
        aA = rng.uniform(50.0, 3.0e4)
        C_p = rng.uniform(100.0, 1.0e5)
        s1 = rng.uniform(0.5, 30.0)
        s2 = s1 * rng.uniform(0.25, 4.0)
        side = (dT_I, dT_w, aA, C_p)
        sel = approx_side(*side, beta_lm_selection(s1, s2))[0]
        assert not sel.feasible_set_empty
        assert 0.0 < sel.beta <= 1.0
        g = g_closed_form(*side, sel.beta)
        assert g >= -1e-9
        assert abs(universal_residual(*side, g, sel.beta)) < 1e-6
        checked += 1
    assert checked == 300


def test_g_matches_xi_expression_on_interior_points():
    # Oracle: the quartic-coefficient form xi1..xi4 of the same root,
    # well conditioned away from the feasibility edge.
    def g_xi(i, w, a, c, beta):
        xi1 = a * (1.0 - beta) + 2.0 * c
        xi2 = 2.0 * a * (a * i - c * w)
        xi3 = 4.0 * c * c * (i + w) + a * (2.0 * c * w - a * i)
        xi4 = math.sqrt((xi2 * beta + xi3) * i)
        return (
            i + w
            + 2.0 * a * beta * (i * a * beta - xi4) / (xi1 * xi1)
            + a * (2.0 * i + w) * (beta - 1.0) / xi1
        )

    rng = np.random.default_rng(17)
    for _ in range(200):
        dT_I = rng.uniform(1.0, 40.0)
        dT_w = rng.uniform(-0.5 * dT_I, 30.0)
        aA = rng.uniform(50.0, 3.0e4)
        C_p = rng.uniform(100.0, 1.0e5)
        beta = rng.uniform(0.05, 1.0)
        side = (dT_I, dT_w, aA, C_p)
        # keep clear of the feasibility edge so the oracle stays accurate
        c0 = 0.5 * aA * (1.0 - beta) * dT_I - C_p * (dT_I + dT_w)
        if c0 > -0.1 * (C_p * dT_I):
            continue
        assert g_closed_form(*side, beta) == pytest.approx(g_xi(*side, beta), rel=1e-9)


def test_g_rejects_bad_beta_and_domain():
    side = (10.0, 2.0, 500.0, 1000.0)  # dT_I, dT_w, aA, C_p
    with pytest.raises(DomainError):
        g_closed_form(*side, 1.5)
    with pytest.raises(DomainError):
        g_closed_form(*side, -0.1)
    bad = (-1.0, 2.0, 500.0, 1000.0)
    with pytest.raises(DomainError):
        g_closed_form(*bad, 0.5)
    # beta = 0 stays valid for any dT_I (linear fallback)
    g_closed_form(*bad, 0.0)
    # beta*_2 = 1 - 2*200*(10 - 5)/(10*1000) = 0.8 is the lowest feasible beta
    edge = (10.0, -5.0, 1000.0, 200.0)
    assert g_closed_form(*edge, 0.8) == pytest.approx(0.0, abs=1e-9)
    for beta in (0.79, 0.5, 0.05):
        with pytest.raises(DomainError, match="outside feasible set"):
            g_closed_form(*edge, beta)


def central_g_partials(dT_I, dT_w, aA, C_p, beta, in_beta=True):
    """Central differences of g_closed_form in dT_I, dT_w, aA and C_p at
    fixed beta, and in beta when in_beta (one-sided, second order, at
    beta = 1)."""
    g = g_closed_form
    args = [dT_I, dT_w, aA, C_p, beta]
    out = []
    for i, x in enumerate(args[:5 if in_beta else 4]):
        h = 1e-6 * max(abs(x), 1.0)
        step = list(args)
        if i == 4 and x + h > 1.0:
            step[i] = x - h
            minus = g(*step)
            step[i] = x - 2.0 * h
            out.append((3.0 * g(*args) - 4.0 * minus + g(*step)) / (2.0 * h))
            continue
        step[i] = x + h
        plus = g(*step)
        step[i] = x - h
        out.append((plus - g(*step)) / (2.0 * h))
    return tuple(out)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    dT_I=st.floats(0.5, 200.0),
    w_ratio=st.floats(-0.9, 2.0),
    aA=st.floats(50.0, 1.0e5),
    C_p=st.floats(100.0, 1.0e5),
    toward_one=st.floats(0.05, 1.0),
)
def test_g_partials_match_central_differences_on_the_beta_lm_branch(
        dT_I, w_ratio, aA, C_p, toward_one):
    # dT_w > -dT_I keeps the feasible set nonempty; beta lies between its
    # lowest member beta*_2 (or 0) and 1, so the stencil stays feasible.
    # On this branch beta is beta_LM, so the last partial is in beta.
    dT_w = w_ratio * dT_I
    lowest = max(1.0 - 2.0 * C_p * (dT_I + dT_w) / (dT_I * aA), 0.0)
    beta = lowest + toward_one * (1.0 - lowest)
    G = g_closed_form(dT_I, dT_w, aA, C_p, beta)
    got = g_partials(dT_I, G, aA, C_p, BetaSelection(beta, BetaBranch.BETA_LM, False))
    want = central_g_partials(dT_I, dT_w, aA, C_p, beta)
    assert got[:2] == pytest.approx(want[:2], rel=1e-6, abs=1e-6)
    # the aA, C_p and beta partials per relative change of the input
    scale = (aA, C_p, 1.0)
    assert [d * s for d, s in zip(got[2:], scale)] == pytest.approx(
        [d * s for d, s in zip(want[2:], scale)], rel=1e-6, abs=1e-6 * max(G, 1.0))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    dT_I=st.floats(-200.0, 200.0),
    dT_w=st.floats(-200.0, 200.0),
    aA=st.floats(50.0, 1.0e5),
    C_p=st.floats(100.0, 1.0e5),
    empty=st.booleans(),
)
def test_g_partials_match_central_differences_on_the_beta_zero_branch(
        dT_I, dT_w, aA, C_p, empty):
    # beta stays 0 whatever beta_LM is: no beta_LM partial
    G = g_closed_form(dT_I, dT_w, aA, C_p, 0.0)
    got = g_partials(dT_I, G, aA, C_p, BetaSelection(0.0, BetaBranch.ZERO, empty))
    assert got[4] == 0.0
    want = central_g_partials(dT_I, dT_w, aA, C_p, 0.0, in_beta=False)
    assert got[:2] == pytest.approx(want[:2], rel=1e-6, abs=1e-6)
    scale = (aA, C_p)
    assert [d * s for d, s in zip(got[2:4], scale)] == pytest.approx(
        [d * s for d, s in zip(want[2:], scale)], rel=1e-6, abs=1e-6 * max(abs(G), 1.0))


def test_g_partials_vanish_on_the_beta_star2_branch():
    # G is 0 along the whole branch, whatever beta*_2 the inputs give
    edge = (10.0, -5.0, 1000.0, 200.0)  # beta*_2 = 0.8, as above
    sel = approx_side(*edge, beta_lm_selection(10.0, 10.0))[0]
    assert sel.branch is BetaBranch.BETA_STAR2
    G = g_closed_form(*edge, sel.beta)
    assert g_partials(edge[0], G, edge[2], edge[3], sel) == (0.0,) * 5


# ---------------------------------------------------------------------------
# Beta selection


def test_beta_lm_reproduces_log_mean():
    for s1, s2 in [(12.0, 5.0), (3.0, 40.0), (7.0, 7.5)]:
        b = beta_lm_value(s1, s2)
        assert 0.0 < b <= 1.0
        wm = weighted_mean(s1, s2, b)
        assert wm == pytest.approx(log_mean(s1, s2), rel=1e-12)
        manual = (arith_mean(s1, s2) - log_mean(s1, s2)) / (
            arith_mean(s1, s2) - geom_mean(s1, s2)
        )
        assert b == pytest.approx(manual, rel=1e-12)


def test_beta_lm_equal_args_limit():
    assert beta_lm_value(5.0, 5.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert beta_lm_value(5.0, 5.0 * (1.0 + 1e-8)) == pytest.approx(2.0 / 3.0)
    assert beta_lm_value(-1.0, 5.0) == pytest.approx(2.0 / 3.0)
    # Near-equal arguments approach 2/3 continuously from outside the switch
    assert beta_lm_value(5.0, 5.0 * (1.0 + 1e-5)) == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_discriminant_is_perfect_square():
    # 4*dT_I*xi3*aA^2 + xi2^2 collapses to (2*aA*C_p*(dT_w + 2*dT_I))^2,
    # so the radicand of the feasibility roots never goes negative.
    rng = np.random.default_rng(5)
    for _ in range(200):
        i = rng.uniform(0.01, 50.0)
        w = rng.uniform(-100.0, 100.0)
        a = rng.uniform(1.0, 1.0e5)
        c = rng.uniform(1.0, 1.0e6)
        xi2 = 2.0 * a * (a * i - c * w)
        xi3 = 4.0 * c * c * (i + w) + a * (2.0 * c * w - a * i)
        disc = 4.0 * i * xi3 * a * a + xi2 * xi2
        assert disc == pytest.approx((2.0 * a * c * (w + 2.0 * i)) ** 2, rel=1e-9)


def test_select_beta_lm_branch():
    sel = approx_side(10.0, 2.0, 500.0, 1000.0, beta_lm_selection(10.0, 6.0))[0]
    assert sel.branch is BetaBranch.BETA_LM
    assert not sel.feasible_set_empty
    assert sel.beta == pytest.approx(beta_lm_value(10.0, 6.0), rel=1e-12)


def test_select_beta_star2_branch():
    # beta*_2 = 1 - 2 C_p (dT_I + dT_w)/(dT_I aA) = 1 - 200/1000 = 0.8,
    # above beta_LM = 2/3, so the lower feasibility edge wins.
    side = (10.0, -5.0, 1000.0, 200.0)  # dT_I, dT_w, aA, C_p
    sel = approx_side(*side, beta_lm_selection(7.0, 7.0))[0]
    assert sel.branch is BetaBranch.BETA_STAR2
    assert sel.beta == pytest.approx(0.8, rel=1e-12)
    assert not sel.feasible_set_empty
    g = g_closed_form(*side, sel.beta)
    assert abs(universal_residual(*side, g, sel.beta)) < 1e-6


def test_select_beta_star2_at_unit_edge():
    # dT_I + dT_w = 0 collapses the feasible set to {1}; the numbers are
    # chosen exactly representable so the edge computes to 1.0.
    sel = approx_side(4.0, -4.0, 1000.0, 250.0, beta_lm_selection(6.0, 6.0))[0]
    assert sel.branch is BetaBranch.BETA_STAR2
    assert sel.beta == 1.0
    assert not sel.feasible_set_empty


def test_select_beta_empty_feasible_set():
    # dT_I + dT_w < 0 pushes both feasibility roots above 1: no valid beta.
    side = (3.0, -5.0, 1000.0, 100.0)  # dT_I, dT_w, aA, C_p
    sel = approx_side(*side, beta_lm_selection(6.0, 6.0))[0]
    assert sel == BetaSelection(0.0, BetaBranch.ZERO, True)
    # The linear fallback still produces an output value.
    g_closed_form(*side, 0.0)


def test_select_beta_nonpositive_dT_I():
    sel = approx_side(-2.0, 3.0, 1000.0, 100.0, beta_lm_selection(6.0, 6.0))[0]
    assert sel.branch is BetaBranch.ZERO
    assert sel.beta == 0.0
    assert not sel.feasible_set_empty


def test_select_beta_boundary_gives_zero_root_position():
    # When the selection lands on a feasibility edge the root position of
    # the closed form touches zero: the predicted outlet meets the wall.
    side = (10.0, -5.0, 1000.0, 200.0)  # dT_I, dT_w, aA, C_p
    sel = approx_side(*side, beta_lm_selection(7.0, 7.0))[0]
    assert sel.branch is BetaBranch.BETA_STAR2
    assert g_closed_form(*side, sel.beta) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# The beta rule as published (candidate list, nearest to beta_LM), here in
# exact rational arithmetic.


def exact_select_beta(dT_I, dT_w, aA, C_p, b_lm) -> tuple[Fraction, str, bool]:
    """(beta, branch value, feasible set empty) of the published rule on
    the exact inputs.  B = [beta*_2, beta*_1] within (0, 1], the edges
    being the factored roots of the feasibility quadratic; ties go to
    beta_LM, beta*_1, beta*_2 in that order."""
    i, w, a, c, lm = map(Fraction, (dT_I, dT_w, aA, C_p, b_lm))
    if i <= 0:
        return Fraction(0), "zero", False
    lo, hi = sorted((1 + 2 * c / a, 1 - 2 * c * (i + w) / (i * a)))
    candidates = [
        (abs(b - lm), rank, b, name)
        for rank, (b, name) in enumerate(((lm, "betaLM"), (hi, "betaStar1"), (lo, "betaStar2")))
        if 0 < b <= 1 and lo <= b <= hi
    ]
    if not candidates:
        return Fraction(0), "zero", True
    _, _, beta, name = min(candidates)
    return beta, name, False


# Every branch, with dT_I down to 1e-18 K and aA up to 1e20 W/K, where
# 2*C_p/aA rounds away next to 1.
CORE_GRID = list(itertools.product(
    (-2.0, 0.0, 1e-18, 1e-9, 0.5, 3.0, 10.0, 40.0),  # dT_I
    (-20.0, -5.0, -3.0, 0.0, 2.0, 8.0),  # dT_w
    (100.0, 1000.0, 1.0e20),  # aA
    (1.0, 200.0, 1000.0, 2.5e4, 1.0e6),  # C_p
))
BETA_LMS = (0.05, 0.5, 2.0 / 3.0, 0.9, 1.0, 1.5)


def test_select_beta_core_matches_reference_on_all_branches():
    reached = Counter()
    rejected = []
    for (dT_I, dT_w, aA, C_p), b_lm in itertools.product(CORE_GRID, BETA_LMS):
        beta, branch, empty = exact_select_beta(dT_I, dT_w, aA, C_p, b_lm)
        lm = BetaSelection(b_lm, BetaBranch.BETA_LM, False)
        sel = approx_side(dT_I, dT_w, aA, C_p, lm)[0]
        assert (sel.branch.value, sel.feasible_set_empty) == (branch, empty)
        # the float beta*_2 = 1 - 2*slack/(dT_I*aA) rounds off the exact edge
        assert abs(Fraction(sel.beta) - beta) <= 2 * Fraction(math.ulp(1.0))
        try:
            g_closed_form(dT_I, dT_w, aA, C_p, sel.beta)
        except DomainError as exc:
            rejected.append((dT_I, dT_w, aA, C_p, b_lm, str(exc)))
        reached[branch, empty] += 1
    assert sum(reached.values()) >= 4000
    assert rejected == []
    assert set(reached) == {
        ("betaLM", False), ("betaStar2", False), ("zero", False), ("zero", True),
    }


# ---------------------------------------------------------------------------
# Steady state


def test_approx_steady_frozen_values():
    cp = CpParams(1000.0, 2000.0, 1000.0, 2000.0)
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    outs = steady_outlets_at(u, 1000.0, cp)
    assert outs.T_h2 == pytest.approx(343.5266598393584, rel=1e-12)
    assert outs.T_c2 == pytest.approx(328.2366700803208, rel=1e-12)


def test_approx_steady_balanced_branch():
    cp = CpParams(1000.0, 1000.0, 1000.0, 1000.0)
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    outs = steady_outlets_at(u, 1000.0, cp)
    assert outs.T_h2 == pytest.approx(350.0, rel=1e-12)
    assert outs.T_c2 == pytest.approx(350.0, rel=1e-12)
    # Continuity across the balanced switch
    near = steady_outlets_at(u, 1000.0, CpParams(1000.0, 1000.0, 1000.0, 1000.0 * (1 + 5e-9)))
    assert near.T_h2 == pytest.approx(350.0, abs=1e-5)


def test_approx_steady_matches_reference_constant_cp():
    cases = [
        (1000.0, 2000.0, 1000.0, 400.0, 300.0, 1.0, 1.0),
        (1400.0, 900.0, 650.0, 430.0, 280.0, 2.2, 1.7),
        (1000.0, 1000.0, 2500.0, 380.0, 310.0, 1.0, 1.0),
    ]
    for cp_h, cp_c, kA, th1, tc1, mh, mc in cases:
        hot, cold = perfect_streams(cp_h, cp_c)
        u = InletConditions(th1, tc1, mh, mc)
        ref = ref_steady_outlets(u, kA, hot, cold)
        apx = steady_outlets_at(u, kA, CpParams(cp_h, cp_c, cp_h, cp_c))
        assert apx.T_h2 == pytest.approx(ref.T_h2, abs=1e-6)
        assert apx.T_c2 == pytest.approx(ref.T_c2, abs=1e-6)


def test_approx_steady_energy_balance():
    cp = CpParams(1100.0, 3100.0, 1100.0, 3100.0)
    u = InletConditions(420.0, 290.0, 1.4, 0.8)
    outs = steady_outlets_at(u, 1800.0, cp)
    q_hot = u.mdot_h * cp.theta5 * (u.T_h1 - outs.T_h2)
    q_cold = u.mdot_c * cp.theta6 * (outs.T_c2 - u.T_c1)
    assert q_hot == pytest.approx(q_cold, rel=1e-12)


def test_approx_steady_walls_match_reference_helper():
    cp = CpParams(1000.0, 2000.0, 1000.0, 2000.0)
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    cond = Conductances(1500.0, 3000.0)
    T_w1s, T_w2s, T_h2s, T_c2s = terms_at(u, cond, cp)[5:]
    outs = OutletTemps(T_h2s, T_c2s)
    assert outs == steady_outlets_at(u, cond.kA, cp)
    ref_walls = steady_wall_temps(outs, u, cond)
    assert T_w1s == pytest.approx(ref_walls.T_w1, rel=1e-14)
    assert T_w2s == pytest.approx(ref_walls.T_w2, rel=1e-14)


def test_approx_steady_rejects_nonpositive_kA():
    with pytest.raises(ValueError):
        steady_outlets_at(
            InletConditions(400.0, 300.0, 1.0, 1.0),
            -5.0,
            CpParams(1.0, 1.0, 1000.0, 1000.0),
        )


# ---------------------------------------------------------------------------
# Outputs and full evaluation


def substitutions(x, u, cond, cp):
    """(dT_I, dT_w, aA, C_p) of the hot and the cold side: the oracle for
    the substitution evaluate_approx and approx_output apply."""
    dT_w = x.T_w1 - x.T_w2
    return (
        (u.T_h1 - x.T_w1, dT_w, cond.aA_h, u.mdot_h * cp.theta3),
        (x.T_w2 - u.T_c1, dT_w, cond.aA_c, u.mdot_c * cp.theta4),
    )


def test_approx_output_wall_referenced():
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    x = WallState(360.0, 330.0)
    cond = Conductances(800.0, 1200.0)
    cp = CpParams(1000.0, 2000.0, 1000.0, 2000.0)
    bh = BetaSelection(0.5, BetaBranch.BETA_LM, False)
    bc = BetaSelection(0.4, BetaBranch.BETA_LM, False)
    outs = approx_output(x, u, cond, cp, bh, bc)
    hot, cold = substitutions(x, u, cond, cp)
    g_h = g_closed_form(*hot, 0.5)
    g_c = g_closed_form(*cold, 0.4)
    assert outs.T_h2 == pytest.approx(g_h + x.T_w2, rel=1e-14)
    assert outs.T_c2 == pytest.approx(x.T_w1 - g_c, rel=1e-14)


def reference_evaluate(x, u, cond_out, cond_steady, cp) -> ApproxEvaluation:
    outlets_s = steady_outlets_at(u, cond_steady.kA, cp)
    steady_walls = steady_wall_temps(outlets_s, u, cond_steady)
    hot, cold = substitutions(x, u, cond_out, cp)
    beta_h = select_beta(*hot, beta_lm_selection(
        u.T_h1 - steady_walls.T_w1, outlets_s.T_h2 - steady_walls.T_w2))
    dT_II_h = g_closed_form(*hot, beta_h.beta)
    beta_c = select_beta(*cold, beta_lm_selection(
        steady_walls.T_w2 - u.T_c1, steady_walls.T_w1 - outlets_s.T_c2))
    dT_II_c = g_closed_form(*cold, beta_c.beta)
    return ApproxEvaluation(
        OutletTemps(dT_II_h + x.T_w2, x.T_w1 - dT_II_c),
        outlets_s, steady_walls, beta_h, beta_c,
        -hot[2] * weighted_mean(hot[0], dT_II_h, beta_h.beta),
        cold[2] * weighted_mean(cold[0], dT_II_c, beta_c.beta),
    )


def test_evaluate_with_and_without_steady_terms_is_exact():
    u = InletConditions(400.0, 300.0, 1.0, 1.2)
    cond_out = Conductances(1400.0, 2900.0)
    cond_steady = Conductances(1500.0, 3000.0)
    cp = CpParams(1010.0, 1990.0, 1000.0, 2000.0)
    terms = terms_at(u, cond_out, cp, cond_steady)
    branches = set()
    # walls from settled to past both inlets, so both sides also hit the
    # beta = 0 fallback
    for T_w1, T_w2 in itertools.product((305.0, 340.0, 372.0, 395.0, 410.0),
                                        (290.0, 318.0, 331.0, 360.0)):
        x = WallState(T_w1, T_w2)
        ev = evaluate_approx(x, u, cp, terms)
        assert ev == reference_evaluate(x, u, cond_out, cond_steady, cp)
        branches |= {ev.beta_hot.branch, ev.beta_cold.branch}
    assert {BetaBranch.BETA_LM, BetaBranch.ZERO} <= branches
    bh, bc = ev.beta_hot, ev.beta_cold
    hot, cold = substitutions(x, u, cond_out, cp)
    assert approx_output(x, u, cond_out, cp, bh, bc) == OutletTemps(
        g_closed_form(*hot, bh.beta) + x.T_w2,
        x.T_w1 - g_closed_form(*cold, bc.beta),
    )


def test_evaluate_matches_reference_at_steady_walls():
    # At the steady wall temperatures the weighted mean equals the log
    # mean on the steady differences, so both models share the root.
    hot, cold = perfect_streams(1000.0, 2000.0)
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    cond = Conductances(1500.0, 3000.0)
    cp = CpParams(1000.0, 2000.0, 1000.0, 2000.0)
    ev = evaluate_approx(
        steady_wall_temps(ref_steady_outlets(u, cond.kA, hot, cold), u, cond),
        u, cp, terms_at(u, cond, cp),
    )
    ref = ref_output(ev.steady_walls, u, cond, hot, cold)
    assert ev.outlets.T_h2 == pytest.approx(ref.T_h2, abs=1e-6)
    assert ev.outlets.T_c2 == pytest.approx(ref.T_c2, abs=1e-6)
    assert ev.outlets.T_h2 == pytest.approx(ev.steady_outlets.T_h2, abs=1e-6)


def test_evaluate_close_to_reference_off_steady():
    hot, cold = perfect_streams(1000.0, 2000.0)
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    cond = Conductances(1500.0, 3000.0)
    cp = CpParams(1000.0, 2000.0, 1000.0, 2000.0)
    terms = terms_at(u, cond, cp)
    for dw1, dw2 in [(3.0, 3.0), (-3.0, -3.0), (2.0, -2.0)]:
        x = WallState(terms[5] + dw1, terms[6] + dw2)
        ev = evaluate_approx(x, u, cp, terms)
        ref = ref_output(x, u, cond, hot, cold)
        assert ev.outlets.T_h2 == pytest.approx(ref.T_h2, abs=1.0)
        assert ev.outlets.T_c2 == pytest.approx(ref.T_c2, abs=1.0)
        assert x.T_w2 < ev.outlets.T_h2 < u.T_h1
        assert u.T_c1 < ev.outlets.T_c2 < x.T_w1


def test_evaluate_heat_rates_close_energy_identity():
    # Q_h = -aA*WM equals -mdot*theta3*(T_h1 - T_h2) through the zeroed
    # residual, and similarly on the cold side.
    hot, cold = perfect_streams()
    u = InletConditions(400.0, 300.0, 1.3, 0.9)
    cond = Conductances(1500.0, 3000.0)
    cp = CpParams(1000.0, 2000.0, 1000.0, 2000.0)
    terms = terms_at(u, cond, cp)
    x = WallState(terms[5] + 2.0, terms[6] - 1.0)
    ev = evaluate_approx(x, u, cp, terms)
    assert ev.Q_h < 0.0 < ev.Q_c
    assert ev.Q_h == pytest.approx(
        -u.mdot_h * cp.theta3 * (u.T_h1 - ev.outlets.T_h2), abs=1e-6
    )
    assert ev.Q_c == pytest.approx(
        u.mdot_c * cp.theta4 * (ev.outlets.T_c2 - u.T_c1), abs=1e-6
    )
    assert isinstance(ev, ApproxEvaluation)


# ---------------------------------------------------------------------------
# Mean specific heat refresh


def test_update_cp_params_constant():
    hot, cold = perfect_streams(1234.0, 987.0)
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    cp = update_cp_params(hot, cold, u)
    assert cp == CpParams(1234.0, 987.0, 1234.0, 987.0)


def test_update_cp_params_polynomial():
    hot, _ = perfect_streams(1000.0, 1.0)
    cold = StreamConfig(make_coolant_model(), 5.0e5)  # cp = 2800 + 2 T
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    seed = update_cp_params(hot, cold, u)
    # no history: point cp at the cold intake, 2800 + 600
    assert seed.theta4 == pytest.approx(3400.0, rel=1e-9)
    cp = update_cp_params(
        hot, cold, u,
        prev_outputs=OutletTemps(350.0, 320.0),
        prev_steady=OutletTemps(340.0, 330.0),
    )
    # mean of a linear cp over [T1, T2] is 2800 + (T1 + T2)
    assert cp.theta4 == pytest.approx(2800.0 + 620.0, rel=1e-9)
    assert cp.theta6 == pytest.approx(2800.0 + 630.0, rel=1e-9)
    assert cp.theta3 == pytest.approx(1000.0, rel=1e-12)


def test_cp_params_validation():
    with pytest.raises(ValueError):
        CpParams(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        CpParams(1.0, 1.0, 1.0, -3.0)


def test_selfconsistent_constant_cp_single_sweep():
    hot, cold = perfect_streams()
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    outs, cp, n = approx_steady_selfconsistent(
        u, hot, cold, lambda _cp: 1000.0, update_cp_params(hot, cold, u))
    assert n == 1
    assert outs.T_h2 == pytest.approx(343.5266598393584, rel=1e-10)
    assert cp.theta5 == 1000.0 and cp.theta6 == 2000.0


def test_selfconsistent_polynomial_converges():
    hot, _ = perfect_streams(1000.0, 1.0)
    cold = StreamConfig(make_coolant_model(), 5.0e5)
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    outs, cp, n = approx_steady_selfconsistent(
        u, hot, cold, lambda _cp: 2000.0, update_cp_params(hot, cold, u))
    assert n <= 5
    # fixed point: refreshing the steady cps no longer moves the outlets
    cp_chk = CpParams(
        cp.theta3,
        cp.theta4,
        hot.fluid.mean_specific_heat(u.T_h1, outs.T_h2, hot.pressure),
        cold.fluid.mean_specific_heat(u.T_c1, outs.T_c2, cold.pressure),
    )
    again = steady_outlets_at(u, 2000.0, cp_chk)
    assert again.T_h2 == pytest.approx(outs.T_h2, abs=2e-4)
    assert again.T_c2 == pytest.approx(outs.T_c2, abs=2e-4)


def test_selfconsistent_callable_kA():
    hot, cold = perfect_streams()
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    calls = []

    def kA_of(cp):
        calls.append(cp.theta6)
        return 0.5 * cp.theta6

    outs, _, _ = approx_steady_selfconsistent(
        u, hot, cold, kA_of, update_cp_params(hot, cold, u))
    assert calls  # correlation consulted
    fixed = steady_outlets_at(u, 1000.0, CpParams(1000.0, 2000.0, 1000.0, 2000.0))
    assert outs.T_h2 == pytest.approx(fixed.T_h2, rel=1e-12)
