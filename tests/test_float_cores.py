"""The float cores of the filter's inner loop against the object API, and
the truth's side solve and fluid calls against their parent forms, bit
for bit (==, not approx).

A predict runs on wall_dynamics.ApproxStage and on ekf.parameter_terms,
the map from the parameter states to the model terms, both on plain
floats.  Each property below evaluates one point both ways: through the
float cores, and through the object API and a reference written out here
in the objects' terms, or the rules one at a time in tests/oracles.py
(beta selection, root, weighted mean; the wall sector).  The explicit
examples put every beta branch (beta_LM, beta*_2, zero, empty), every
wall sector (I-V), both parameter floors and the balanced-capacity branch
under test; test_examples_cover_every_branch checks that they still do.

The truth's reference_model._solve_side writes the side residual and its
slope out inline; it is pinned against the closures over heat_rate and
heat_rate_slope solved by Newton with the bracketed fallback
(tests/oracles.py), on every heat-rate branch of each side, every path
of the solve and each fluid kind; test_side_solve_examples_cover_every_path
checks the examples.  The fluids' inlined enthalpy and slope are pinned
against the cell lookup and Horner steps written out.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hxtwin.ekf as ekf
import oracles
from hxtwin import reference_model
from hxtwin.approx_model import (
    ApproxEvaluation,
    BetaBranch,
    BetaSelection,
    CpParams,
    OutletTemps,
    approx_side,
    beta_lm_value,
    evaluate_approx,
    g_closed_form,
    partial_rows,
    steady_outlets,
    steady_terms,
)
from hxtwin.correlations import CorrelationParams, alpha_A
from hxtwin.ekf import MDOT_FLOOR, UPSILON_FLOOR, EkfConfig, conductances, parameter_terms
from hxtwin.fluids import CaloricallyPerfect
from hxtwin.means import heat_rate
from hxtwin.sampledata import COOLANT_CP_COEFFS, make_co2_like_table, make_coolant_model
from hxtwin.reference_model import Conductances, InletConditions, WallState, steady_wall_temps
from hxtwin.wall_dynamics import (
    SECTOR_V_EPSILON,
    TDW_LOWER_BOUND,
    ApproxStage,
    Sector,
    WallDynamicsConfig,
    integrate_step,
    rk4_pair,
    sector_gain,
    wall_drift_rate,
)
from oracles import classify_sector, select_beta, weighted_mean

SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)

U = InletConditions(400.0, 300.0, 1.0, 1.0)
CP = CpParams(1000.0, 2000.0, 1000.0, 2000.0)
UPS = (1500.0, 3000.0)
# wall offsets from the steady walls: sectors III, I, II, IV and V;
# beta_LM on both sides; beta*_2 on one side or both; beta = 0 and an
# empty feasible set
BRANCH_OFFSETS = [
    (2.0, 1.0), (-2.0, -1.0), (2.0, -1.0), (-1.0, 2.0), (0.0, 0.0),
    (-20.0, -15.0), (25.0, 30.0),
    (-64.0, 40.0), (-48.0, 48.0), (-64.0, 8.0),
    (40.0, -8.0), (-80.0, 8.0), (40.0, -72.0),
]


def make_cfg(variant):
    return EkfConfig(
        variant=variant,
        wall=WallDynamicsConfig(theta7=2000.0),
        corr_hot=CorrelationParams(exp1=0.6, exp2=0.1),
        corr_cold=CorrelationParams(exp1=0.8, offset=5.0),
        r_x_density=0.01, r_upsilon_density=1000.0, r_y_density=0.01,
    )


def joint_state(cfg, offset, params=(*UPS, 0.8)):
    """[T_w1, T_w2, p...]: the steady walls of the parameter states plus
    the wall offset."""
    p = list(params[:cfg.n_states - 2])
    u_eff, _, cond_steady = reference_inputs(cfg, [0.0, 0.0, *p], U, CP)
    walls = reference_steady(u_eff, cond_steady, CP)[1]
    return np.array([walls.T_w1 + offset[0], walls.T_w2 + offset[1], *p])


# ---------------------------------------------------------------------------
# References in the objects' terms


def reference_inputs(cfg, z, u, cp):
    if cfg.n_states == 5:
        u = replace(u, mdot_c=max(float(z[4]), MDOT_FLOOR))
    ups_h, ups_c = max(float(z[2]), UPSILON_FLOOR), max(float(z[3]), UPSILON_FLOOR)
    return (u,
            Conductances(alpha_A(cfg.corr_hot, ups_h, u.mdot_h, cp.theta3),
                         alpha_A(cfg.corr_cold, ups_c, u.mdot_c, cp.theta4)),
            Conductances(alpha_A(cfg.corr_hot, ups_h, u.mdot_h, cp.theta5),
                         alpha_A(cfg.corr_cold, ups_c, u.mdot_c, cp.theta6)))


def reference_steady(u, cond_steady, cp):
    outlets = OutletTemps(*steady_outlets(
        u.T_h1, u.T_c1, u.mdot_h * cp.theta5, u.mdot_c * cp.theta6, cond_steady.kA))
    walls = steady_wall_temps(outlets, u, cond_steady)
    return (outlets, walls,
            BetaSelection(beta_lm_value(u.T_h1 - walls.T_w1, outlets.T_h2 - walls.T_w2),
                          BetaBranch.BETA_LM, False),
            BetaSelection(beta_lm_value(walls.T_w2 - u.T_c1, walls.T_w1 - outlets.T_c2),
                          BetaBranch.BETA_LM, False))


def reference_tau(u, cond_out, steady):
    """The terms of an evaluation that the parameter states move, in the
    order of partial_rows' dtau, given reference_steady's steady."""
    _, walls, lm_h, lm_c = steady
    return (cond_out.aA_h, cond_out.aA_c, u.mdot_c, lm_h.beta, lm_c.beta, walls.T_w1, walls.T_w2)


def reference_evaluate(x, u, cond_out, cp, steady_outlets, steady_walls, lm_h, lm_c):
    dT_w = x.T_w1 - x.T_w2
    hot = (u.T_h1 - x.T_w1, dT_w, cond_out.aA_h, u.mdot_h * cp.theta3)
    cold = (x.T_w2 - u.T_c1, dT_w, cond_out.aA_c, u.mdot_c * cp.theta4)
    beta_h = select_beta(*hot, lm_h)
    beta_c = select_beta(*cold, lm_c)
    G_h = g_closed_form(*hot, beta_h.beta)
    G_c = g_closed_form(*cold, beta_c.beta)
    return ApproxEvaluation(
        OutletTemps(G_h + x.T_w2, x.T_w1 - G_c), steady_outlets, steady_walls,
        beta_h, beta_c, -hot[2] * weighted_mean(hot[0], G_h, beta_h.beta),
        cold[2] * weighted_mean(cold[0], G_c, beta_c.beta))


def reference_rhs(x, xs, Q_h, Q_c, cfg):
    e1, e2 = xs.T_w1 - x.T_w1, xs.T_w2 - x.T_w2
    sector = classify_sector(e1, e2, SECTOR_V_EPSILON)
    if sector is Sector.V:
        return 0.0, 0.0
    tdw = wall_drift_rate(Q_h, Q_c, cfg.theta7)
    if sector in (Sector.I, Sector.III):
        a = 2.0 * tdw / (e1 + e2)
    else:
        a = 2.0 * max(abs(tdw), TDW_LOWER_BOUND) / math.hypot(e1, e2)
    return a * e1, a * e2


def reference_rows(x, xs, Q_h, Q_c, dQ_h, dQ_c, cfg, dxs):
    e1, e2 = xs.T_w1 - x.T_w1, xs.T_w2 - x.T_w2
    g = [wall_drift_rate(h, c, cfg.theta7) for h, c in zip(dQ_h, dQ_c)]
    sector = classify_sector(e1, e2, SECTOR_V_EPSILON)
    if sector is Sector.V:
        rest = (0.0,) * (len(g) - 2)
        return (2.0 * g[0], 0.0, *rest), (0.0, 2.0 * g[1], *rest)
    tdw = wall_drift_rate(Q_h, Q_c, cfg.theta7)
    if sector in (Sector.I, Sector.III):
        s = e1 + e2
        a = 2.0 * tdw / s
        a_e1 = a_e2 = -a / s
        a_t = 2.0 / s
    else:
        n = math.hypot(e1, e2)
        if abs(tdw) > TDW_LOWER_BOUND:
            a = 2.0 * abs(tdw) / n
            a_t = (2.0 if tdw > 0.0 else -2.0) / n
        else:
            a = 2.0 * TDW_LOWER_BOUND / n
            a_t = 0.0
        a_e1 = -a * e1 / (n * n)
        a_e2 = -a * e2 / (n * n)
    grad = [a_t * gk + a_e1 * s1 + a_e2 * s2 for gk, s1, s2 in zip(g, *dxs)]
    grad[0] -= a_e1
    grad[1] -= a_e2
    row1 = [e1 * gk + a * s1 for gk, s1 in zip(grad, dxs[0])]
    row2 = [e2 * gk + a * s2 for gk, s2 in zip(grad, dxs[1])]
    row1[0] -= a
    row2[1] -= a
    return tuple(row1), tuple(row2)


def partials_at(x, u, cond_out, cp, ev, dtau):
    """partial_rows at ev = evaluate_approx(x, u, cond_out, ...): the
    rows over (T_w1, T_w2, q_1, ...) of (T_h2, T_c2, Q_h, Q_c, T_w1s, T_w2s)."""
    return partial_rows(x.T_w1, x.T_w2, u.T_h1, u.T_c1, cond_out.aA_h, cond_out.aA_c,
                        u.mdot_h * cp.theta3, u.mdot_c * cp.theta4, cp.theta4,
                        ev.beta_hot, ev.beta_cold, ev.outlets.T_h2, ev.outlets.T_c2, dtau)


def reference_dtau(cfg, z, u, cp):
    """dtau/dp rows by numpy central differences of reference_tau over
    the reference inputs and steady terms."""
    def tau(p):
        u_eff, cond_out, cond_steady = reference_inputs(cfg, np.concatenate((z[:2], p)), u, cp)
        return np.array(reference_tau(u_eff, cond_out, reference_steady(u_eff, cond_steady, cp)))

    cols = []
    for i in range(2, z.size):
        h = max(ekf.JACOBIAN_REL_STEP * abs(z[i]), ekf.JACOBIAN_ABS_STEP)
        zp, zm = z[2:].copy(), z[2:].copy()
        zp[i - 2] += h
        zm[i - 2] -= h
        cols.append((tau(zp) - tau(zm)) / (2.0 * h))
    return np.array(cols).tolist()


# ---------------------------------------------------------------------------
# Properties


offsets = st.tuples(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0))
# leading factors and cold flows across the floors UPSILON_FLOOR = 1 W/K
# and MDOT_FLOOR = 0.01 kg/s
params = st.tuples(st.floats(-50.0, 5000.0), st.floats(-50.0, 5000.0), st.floats(-0.5, 2.0))


def branch_examples(test):
    for variant in "ABC":
        for offset in BRANCH_OFFSETS:
            test = example(variant=variant, offset=offset, p=(*UPS, 0.8))(test)
    # both floors: leading factors and the cold flow below them
    return example(variant="B", offset=(3.0, -2.0), p=(0.5, -20.0, 0.004))(test)


@SETTINGS
@given(variant=st.sampled_from("ABC"), offset=offsets, p=params)
@branch_examples
def test_stage_is_the_object_api_at_every_branch_and_sector(variant, offset, p):
    cfg = make_cfg(variant)
    z = joint_state(cfg, (0.0, 0.0), p)
    z[:2] += offset
    wall = WallState(float(z[0]), float(z[1]))
    u_eff, cond_out, cond_steady = reference_inputs(cfg, z, U, CP)
    assert conductances(cfg, z[2:], U, CP) == (
        u_eff.mdot_c, cond_out.aA_h, cond_out.aA_c, cond_steady.aA_h, cond_steady.aA_c)
    steady = reference_steady(u_eff, cond_steady, CP)
    outlets_s, walls_s, lm_h, lm_c = steady
    terms = parameter_terms(cfg, z[2:], U, CP)
    assert terms == (*reference_tau(u_eff, cond_out, steady), outlets_s.T_h2, outlets_s.T_c2)
    ev = evaluate_approx(wall, U, CP, terms)
    assert ev == reference_evaluate(wall, u_eff, cond_out, CP, outlets_s, walls_s, lm_h, lm_c)

    dtau = ekf._tau_partials(cfg, z, U, CP)
    assert dtau == reference_dtau(cfg, z, U, CP)
    rates = reference_rhs(wall, walls_s, ev.Q_h, ev.Q_c, cfg.wall)
    _, _, dQ_h, dQ_c, dw1s, dw2s = partials_at(wall, u_eff, cond_out, CP, ev, dtau)
    rows = reference_rows(wall, walls_s, ev.Q_h, ev.Q_c, dQ_h, dQ_c, cfg.wall, (dw1s, dw2s))

    stage = ApproxStage(U, CP, terms, cfg.wall, dtau)
    assert stage.rates(wall.T_w1, wall.T_w2) == rates
    k1, stage_rows = stage.rates_and_rows(wall.T_w1, wall.T_w2)
    assert k1 == rates
    assert tuple(map(tuple, stage_rows)) == rows


@SETTINGS
@given(mdot_c=st.floats(0.05, 5.0), theta6=st.floats(500.0, 5000.0),
       aA=st.tuples(st.floats(10.0, 1e5), st.floats(10.0, 1e5)), balanced=st.booleans())
@example(mdot_c=1.0, theta6=1000.0, aA=(1500.0, 3000.0), balanced=True)
def test_steady_core_is_approx_steady_terms(mdot_c, theta6, aA, balanced):
    # balanced: W_c = W_h exactly, the balanced-capacity branch
    cp = replace(CP, theta6=U.mdot_h * CP.theta5 / mdot_c if balanced else theta6)
    u = replace(U, mdot_c=mdot_c)
    cond = Conductances(*aA)
    outlets_s, walls_s, lm_h, lm_c = reference_steady(u, cond, cp)
    assert steady_terms(u.T_h1, u.T_c1, u.mdot_h * cp.theta5, u.mdot_c * cp.theta6, *aA) == (
        lm_h.beta, lm_c.beta, walls_s.T_w1, walls_s.T_w2, outlets_s.T_h2, outlets_s.T_c2)


@SETTINGS
@given(w=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), dt=st.floats(0.001, 1.0),
       substeps=st.integers(1, 12))
def test_integrate_step_is_rk4_pair_looped(w, dt, substeps):
    def rhs(w1, w2):
        return -1.3 * w1 + 0.2 * w2, math.sin(w1) - w2

    h = dt / substeps
    w1, w2 = w
    for _ in range(substeps):
        w1, w2 = rk4_pair(rhs, w1, w2, h, rhs(w1, w2))
    assert integrate_step(rhs, WallState(*w), dt, substeps) == WallState(w1, w2)


# ---------------------------------------------------------------------------
# The fused side and sector against the rules one at a time


def oracle_side(dT_I, dT_w, aA, C_p, lm):
    """approx_side as three calls: select_beta, then g_closed_form, then
    weighted_mean."""
    sel = select_beta(dT_I, dT_w, aA, C_p, lm)
    G = g_closed_form(dT_I, dT_w, aA, C_p, sel.beta)
    return sel, G, weighted_mean(dT_I, G, sel.beta)


def lm_selection(b):
    return BetaSelection(b, BetaBranch.BETA_LM, False)


# (dT_I, dT_w, aA, C_p, beta_LM) of each outcome of the beta rule
SIDE_OUTCOMES = {
    "zero": (-2.0, 3.0, 1000.0, 100.0, 2.0 / 3.0),
    "zero-at-dT_I-0": (0.0, 3.0, 1000.0, 100.0, 2.0 / 3.0),
    "empty-slack": (3.0, -5.0, 1000.0, 100.0, 2.0 / 3.0),
    "empty-beta_star2": (10.0, 2.0, 500.0, 1000.0, 1.5),
    "beta_LM": (10.0, 2.0, 500.0, 1000.0, 0.55),
    "beta_star2": (10.0, -5.0, 1000.0, 200.0, 2.0 / 3.0),
    "beta_star2-at-1": (4.0, -4.0, 1000.0, 250.0, 2.0 / 3.0),
    # beta_LM on the feasibility edge: c0 = 2500 - 2500 = 0, G = 0
    "c0-edge": (10.0, 0.0, 1000.0, 250.0, 0.5),
}


def test_side_outcomes_reach_every_branch():
    got = {name: approx_side(*side[:4], lm_selection(side[4]))
           for name, side in SIDE_OUTCOMES.items()}
    assert {(sel.branch, sel.feasible_set_empty) for sel, _, _ in got.values()} == {
        (BetaBranch.ZERO, False), (BetaBranch.ZERO, True),
        (BetaBranch.BETA_LM, False), (BetaBranch.BETA_STAR2, False)}
    assert got["c0-edge"][0].branch is BetaBranch.BETA_LM
    assert got["c0-edge"][1] == 0.0
    assert got["beta_star2-at-1"][0].beta == 1.0


def side_examples(test):
    for side in SIDE_OUTCOMES.values():
        test = example(*side)(test)
    return test


# one call per example, so many examples: a wrong rounding of WM shows
# on a small share of the points
@settings(SETTINGS, max_examples=200)
@given(dT_I=st.floats(-5.0, 40.0), dT_w=st.floats(-20.0, 40.0), aA=st.floats(1.0, 1e5),
       C_p=st.floats(1.0, 1e5), b_lm=st.floats(1e-12, 1.5))
@side_examples
def test_side_is_the_oracle_composition(dT_I, dT_w, aA, C_p, b_lm):
    lm = lm_selection(b_lm)
    assert approx_side(dT_I, dT_w, aA, C_p, lm) == oracle_side(dT_I, dT_w, aA, C_p, lm)


@SETTINGS
@given(variant=st.sampled_from("ABC"), offset=offsets, p=params)
@branch_examples
def test_side_at_the_parameter_terms_is_the_oracle_composition(variant, offset, p):
    # the branch examples put both floors (leading factors and cold flow)
    # under test through parameter_terms
    cfg = make_cfg(variant)
    z = joint_state(cfg, (0.0, 0.0), p)
    w1, w2 = float(z[0]) + offset[0], float(z[1]) + offset[1]
    aA_h, aA_c, mdot_c, b_h, b_c = parameter_terms(cfg, z[2:], U, CP)[:5]
    for side in ((U.T_h1 - w1, w1 - w2, aA_h, U.mdot_h * CP.theta3, lm_selection(b_h)),
                 (w2 - U.T_c1, w1 - w2, aA_c, mdot_c * CP.theta4, lm_selection(b_c))):
        assert approx_side(*side) == oracle_side(*side)


@pytest.mark.parametrize("e", [
    (0.0, 0.0), (-0.0, 0.0), (5e-10, -5e-10), (-9.99e-10, 9.99e-10),
    (1e-9, 0.0), (-1e-9, 0.0), (0.0, 1e-9), (1e-9, -1e-9),
    (0.0, 4.0), (4.0, 0.0), (0.0, -4.0), (-4.0, 0.0), (-0.0, -4.0), (4.0, -0.0),
])
def test_sector_gain_decides_the_oracle_sector(e):
    # the axis ties and the edges of the sector-V dead band
    assert sector_gain(*e, 1.0)[0] is classify_sector(*e, SECTOR_V_EPSILON)


def test_examples_cover_every_branch():
    seen = set()
    for variant in "ABC":
        cfg = make_cfg(variant)
        for offset in BRANCH_OFFSETS:
            z = joint_state(cfg, offset)
            ev = ekf.ekf_evaluation(cfg, z, U, CP)
            seen.add(sector_gain(ev.steady_walls.T_w1 - z[0], ev.steady_walls.T_w2 - z[1],
                                 0.0)[0])
            for sel in (ev.beta_hot, ev.beta_cold):
                seen.add("empty" if sel.feasible_set_empty else sel.branch)
    assert seen == {*Sector, BetaBranch.BETA_LM, BetaBranch.BETA_STAR2, BetaBranch.ZERO, "empty"}
    mdot_c, aA_h, aA_c, _, _ = conductances(make_cfg("B"), np.array([0.5, -20.0, 0.004]), U, CP)
    assert mdot_c == MDOT_FLOOR
    assert (aA_h, aA_c) == (alpha_A(make_cfg("B").corr_hot, UPSILON_FLOOR, 1.0, 1000.0),
                            alpha_A(make_cfg("B").corr_cold, UPSILON_FLOOR, MDOT_FLOOR, 2000.0))


# ---------------------------------------------------------------------------
# The truth's side solve and fluid calls against their parent forms


# kind -> (fluid, pressure); the table's T hull is [270, 430] K, the
# polynomial's [200, 600] K
SIDE_FLUIDS = {
    "perfect": (CaloricallyPerfect(4180.0), 1e5),
    "polynomial": (make_coolant_model(), 1e5),
    "table": (make_co2_like_table(), 1e7),
}
# name -> (hot, mdot, dT, aA, lo, hi, guess), solved with each fluid.  The
# hot side's difference is z = T - lo and its log mean heat_rate(dT, z);
# the cold side's is z = hi - T and heat_rate(z, dT).  Newton's first
# iterate is the guess, so a guess at z = dT takes the equal-difference
# arithmetic branch, and one within a relative 1e-8 of it log_mean's
# series switch (at guesses where the series and the atanh quotient
# differ in the last bit).
# In the examples marked root-at-guess the inlet enthalpy puts the root at
# the guess, so the solve returns the bits of that first evaluation.
SIDE_SOLVES = {
    "hot-log-mean": (True, 0.5, 30.0, 3000.0, 300.0, 360.0, 345.0),
    "hot-series": (True, 0.5, 30.0, 3000.0, 300.0, 360.0, 330.00000003),
    "hot-equal": (True, 0.5, 30.0, 3000.0, 300.0, 360.0, 330.0),
    "hot-arithmetic": (True, 0.5, -2.0, 3000.0, 300.0, 360.0, 345.0),
    "cold-log-mean": (False, 0.5, 20.0, 3000.0, 300.0, 360.0, 320.0),
    "cold-series": (False, 0.5, 20.0, 3000.0, 300.0, 360.0, 340.00000019),
    "cold-equal": (False, 0.5, 20.0, 3000.0, 300.0, 360.0, 340.0),
    "cold-arithmetic": (False, 0.5, -1.0, 3000.0, 300.0, 360.0, 320.0),
    "clamped-below": (True, 0.5, 30.0, 3000.0, 300.0, 360.0, 250.0),
    "clamped-above": (False, 0.5, 20.0, 3000.0, 300.0, 360.0, 400.0),
    "no-guess": (False, 0.5, 20.0, 3000.0, 300.0, 360.0, None),
    # Newton leaves the interval: one ends at a flagged endpoint, one at
    # the bracketed root
    "fallback-flagged": (True, 0.001, 40.0, 30000.0, 340.0, 350.0, 334.0),
    "fallback-bracketed": (False, 0.001, 5.0, 130.0, 348.0, 370.0, 350.0),
    "lo-equals-hi": (True, 0.5, 30.0, 3000.0, 330.0, 330.0, 330.0),
    "inverted": (False, 0.5, 20.0, 3000.0, 340.0, 330.0, 335.0),
    # below both hulls (the perfect gas has none)
    "out-of-hull": (False, 0.5, 20.0, 3000.0, 150.0, 260.0, 180.0),
}
ROOT_AT_GUESS = [name for name in SIDE_SOLVES if name.startswith(("hot-", "cold-"))]


def solved_both_ways(kind, hot, mdot, dT, aA, lo, hi, guess, root_at_guess=False):
    """(_solve_side, oracle) outcomes of one side solve: the float bits of
    (T, residual, flagged), or the type and text of what was raised.  The
    inlet enthalpy is taken at the hull edge nearest the inlet, or where
    the residual is zero at the guess."""
    fluid, p = SIDE_FLUIDS[kind]
    if root_at_guess:
        q = heat_rate(dT, guess - lo, aA) if hot else -heat_rate(hi - guess, dT, aA)
        h1 = fluid.enthalpy(guess, p) + q / mdot
    else:
        inlet = hi if hot else lo
        h1 = fluid.enthalpy(min(max(inlet, fluid.hull_T[0]), fluid.hull_T[1]), p)
    side = (fluid, p, mdot, h1, dT, aA, lo, hi, hot)
    return (outcome(reference_model._solve_side, *side, guess),
            outcome(oracles.solve_side, *oracles.side_closures(*side), lo, hi, guess))


def outcome(solve, *args):
    try:
        T, r, flagged = solve(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return T.hex(), r.hex(), flagged


@pytest.mark.parametrize("kind", list(SIDE_FLUIDS))
@pytest.mark.parametrize("name", ROOT_AT_GUESS)
def test_side_solve_is_the_closure_newton_at_its_first_iterate(name, kind):
    new, old = solved_both_ways(kind, *SIDE_SOLVES[name], root_at_guess=True)
    assert new == old
    assert new[0] == SIDE_SOLVES[name][-1].hex()


@pytest.mark.parametrize("kind", list(SIDE_FLUIDS))
@pytest.mark.parametrize("name", list(SIDE_SOLVES))
def test_side_solve_is_the_closure_newton(name, kind):
    new, old = solved_both_ways(kind, *SIDE_SOLVES[name])
    assert new == old


def test_side_solve_examples_cover_every_path(monkeypatch):
    # the heat-rate branch of each Newton evaluation of the oracle, by
    # side, and each path through the solve
    seen = set()
    hot = None
    heat_rate_slope, newton_side = oracles.heat_rate_slope, oracles.newton_side

    def slope(z, dT, aA, q):
        if z > 0.0 and dT > 0.0 and z != dT:
            ratio = dT / z if hot else z / dT
            branch = "series" if abs(ratio - 1.0) < 1e-8 else "log-mean"
        else:
            branch = "equal" if z == dT else "arithmetic"
        seen.add(("hot" if hot else "cold", branch))
        return heat_rate_slope(z, dT, aA, q)

    def newton(*args):
        root = newton_side(*args)
        seen.add("newton" if root else "fallback")
        return root

    monkeypatch.setattr(oracles, "heat_rate_slope", slope)
    monkeypatch.setattr(oracles, "newton_side", newton)
    for kind in SIDE_FLUIDS:
        for name, (hot, *rest) in SIDE_SOLVES.items():
            new, old = solved_both_ways(kind, hot, *rest, root_at_guess=name in ROOT_AT_GUESS)
            lo, hi, guess = rest[-3:]
            a, b = lo + 1e-7 * (hi - lo), hi - 1e-7 * (hi - lo)
            if guess is not None and lo < hi and not a < guess < b:
                seen.add("clamped")
            seen.add(new[0] if new[0].endswith("Error") else f"flagged={new[2]}")
    assert seen == {(side, branch) for side in ("hot", "cold")
                    for branch in ("log-mean", "series", "equal", "arithmetic")} | {
        "newton", "fallback", "clamped", "flagged=False", "flagged=True",
        "BracketError", "OutOfRangeError"}


side_solves = st.tuples(
    st.sampled_from(list(SIDE_FLUIDS)), st.booleans(), st.floats(1e-3, 10.0),
    st.floats(-5.0, 60.0), st.floats(1.0, 1e5), st.floats(280.0, 380.0),
    st.floats(0.0, 40.0), st.floats(-10.0, 50.0))


@settings(SETTINGS, max_examples=200)
@given(case=side_solves)
def test_side_solve_is_the_closure_newton_anywhere(case):
    # guesses from 10 K below the bracket to 10 K above it, so some are
    # clamped; flows and conductances over four decades, so some Newton
    # runs fall back
    kind, hot, mdot, dT, aA, lo, span, offset = case
    new, old = solved_both_ways(kind, hot, mdot, dT, aA, lo, lo + span, lo + offset)
    assert new == old


TABLE = SIDE_FLUIDS["table"][0]
COOLANT = SIDE_FLUIDS["polynomial"][0]


def fluid_both_ways(kind, T, p):
    """(new, oracle) (enthalpy, slope) bits of the table or polynomial
    fluid at (T, p), or the type and text of what was raised."""
    if kind == "table":
        calls = ((TABLE.enthalpy, TABLE.enthalpy_slope),
                 (lambda T, p: oracles.table_enthalpy(TABLE, T, p),
                  lambda T, p: oracles.table_enthalpy_slope(TABLE, T, p)))
    else:
        hull = COOLANT.hull_T
        calls = ((COOLANT.enthalpy, COOLANT.enthalpy_slope),
                 (lambda T, p: oracles.poly_enthalpy(COOLANT_CP_COEFFS, hull, T),
                  lambda T, p: oracles.poly_cp(COOLANT_CP_COEFFS, hull, T)))
    out = []
    for enthalpy, slope in calls:
        try:
            out.append((enthalpy(T, p).hex(), slope(T, p).hex()))
        except ValueError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


@pytest.mark.parametrize("kind", ["table", "polynomial"])
def test_fluid_calls_are_the_cell_and_horner_steps_at_edges_and_nodes(kind):
    lo, hi = (TABLE if kind == "table" else COOLANT).hull_T
    temps = [lo, hi, *TABLE.T_grid, math.nextafter(lo, -math.inf),
             math.nextafter(hi, math.inf), lo - 50.0, hi + 50.0]
    for T in temps:
        new, old = fluid_both_ways(kind, T, 1e7)
        assert new == old, T
    # below the hull, each raises the same text
    assert fluid_both_ways(kind, lo - 50.0, 1e7)[0][0] == "OutOfRangeError"


@settings(SETTINGS, max_examples=200)
@given(kind=st.sampled_from(["table", "polynomial"]), T=st.floats(190.0, 610.0),
       p=st.floats(8e6, 1.2e7))
def test_fluid_calls_are_the_cell_and_horner_steps(kind, T, p):
    new, old = fluid_both_ways(kind, T, p)
    assert new == old
