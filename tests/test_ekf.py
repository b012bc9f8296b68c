"""Tests for the joint extended Kalman filter."""

from collections import Counter

import numpy as np
import pytest

import hxtwin.ekf
from hxtwin.approx_model import (
    CpParams,
    approx_partials,
    approx_steady_terms,
    evaluate_approx,
    evaluation_tau,
)
from hxtwin.correlations import CorrelationParams, alpha_A, serial_conductance
from hxtwin.ekf import (
    JACOBIAN_ABS_STEP,
    JACOBIAN_REL_STEP,
    MDOT_FLOOR,
    UPSILON_FLOOR,
    DimensionMismatchError,
    EkfConfig,
    EkfState,
    SingularInnovationCovarianceError,
    central_jacobian,
    ekf_evaluation,
    ekf_init,
    ekf_predict,
    ekf_update,
    estimate_kA,
    kalman_gain,
    model_inputs,
)
from hxtwin.reference_model import InletConditions, WallState
from hxtwin.approx_model import approx_steady_walls
from hxtwin.reference_model import Conductances
from hxtwin.wall_dynamics import (
    SECTOR_V_EPSILON,
    WallDynamicsConfig,
    classify_sector,
    wall_rhs,
    wall_rhs_jacobian,
)


CP = CpParams(1000.0, 2000.0, 1000.0, 2000.0)
U = InletConditions(400.0, 300.0, 1.0, 1.0)


def make_cfg(variant="A", **kw):
    defaults = dict(
        variant=variant,
        wall=WallDynamicsConfig(theta7=2000.0),
        corr_hot=CorrelationParams(),  # constant: alpha_A = upsilon
        corr_cold=CorrelationParams(),
        r_x_density=0.01,
        r_upsilon_density=1000.0,
        r_y_density=0.01,
    )
    defaults.update(kw)
    return EkfConfig(**defaults)


def steady_state_for(cfg, ups=(1500.0, 3000.0), mdot_c0=None):
    _, walls = approx_steady_walls(U, Conductances(*ups), CP)
    return ekf_init(cfg, walls, ups, mdot_c0=mdot_c0)


# ---------------------------------------------------------------------------
# Configuration and initialization


def test_config_variants_and_shapes():
    assert make_cfg("A").n_states == 4
    assert make_cfg("B").n_states == 5
    assert make_cfg("C").n_states == 5
    assert make_cfg("A").measured_rows == (0, 1)
    assert make_cfg("B").measured_rows == (0, 1)
    assert make_cfg("C").measured_rows == (0,)
    with pytest.raises(ValueError):
        make_cfg("D")
    with pytest.raises(ValueError):
        make_cfg("A", r_y_density=0.0)
    with pytest.raises(TypeError):  # the floors are module constants
        make_cfg("A", upsilon_floor=2.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize(
    "field", ["r_x_density", "r_upsilon_density", "r_y_density", "r_mdot_density"])
def test_config_rejects_densities_that_are_not_finite_and_positive(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        make_cfg("B", **{field: value})


def test_process_noise_density_layout():
    q4 = make_cfg("A").process_noise_density()
    assert q4.shape == (4, 4)
    assert np.allclose(np.diag(q4), [0.01, 0.01, 1000.0, 1000.0])
    assert np.count_nonzero(q4 - np.diag(np.diag(q4))) == 0
    q5 = make_cfg("B", r_mdot_density=0.1).process_noise_density()
    assert q5.shape == (5, 5)
    assert q5[4, 4] == 0.1


def test_init_covariance_and_layout():
    cfg = make_cfg("A")
    st = ekf_init(cfg, WallState(350.0, 320.0), (1500.0, 3000.0))
    assert np.allclose(st.x_hat, [350.0, 320.0, 1500.0, 3000.0])
    assert np.allclose(st.P, cfg.process_noise_density())  # 1 s horizon
    st5 = ekf_init(make_cfg("B"), WallState(350.0, 320.0), (1500.0, 3000.0),
                   mdot_c0=41.0)
    assert st5.x_hat[4] == 41.0


def test_init_requires_mdot_for_augmented_variants():
    with pytest.raises(DimensionMismatchError):
        ekf_init(make_cfg("B"), WallState(350.0, 320.0), (1500.0, 3000.0))


# ---------------------------------------------------------------------------
# Numerics helpers


def test_central_jacobian_polynomial():
    def fun(z):
        return np.array([z[0] ** 2, z[0] * z[1]])

    J = central_jacobian(fun, np.array([3.0, 5.0]))
    assert J == pytest.approx(np.array([[6.0, 0.0], [5.0, 3.0]]), abs=1e-6)


def test_central_jacobian_abs_step_at_zero():
    def fun(z):
        return np.array([np.sin(z[0])])

    J = central_jacobian(fun, np.array([0.0]))
    assert J[0, 0] == pytest.approx(1.0, abs=1e-9)


def reference_jacobian(fun, x, rel_step, abs_step):
    cols = []
    for i in range(x.size):
        h = max(rel_step * abs(x[i]), abs_step)
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        cols.append((fun(xp) - fun(xm)) / (2.0 * h))
    return np.column_stack(cols)


def test_central_jacobian_matches_column_stack():
    def fun(z):
        return np.array([z[0] ** 2 * z[2], np.sin(z[1]) + z[0], np.exp(z[2] / 7.0)])

    x = np.array([3.0, -0.25, 0.0, 12.5])
    J = central_jacobian(fun, x)
    assert J.shape == (3, 4)
    assert np.array_equal(
        J, reference_jacobian(fun, x, JACOBIAN_REL_STEP, JACOBIAN_ABS_STEP))


def test_kalman_gain_scalar_oracle():
    K = kalman_gain(np.array([[4.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert K[0, 0] == pytest.approx(4.0 / 5.0, rel=1e-12)


def test_kalman_gain_matrix_matches_inverse():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 4))
    P = A @ A.T + 4.0 * np.eye(4)
    H = rng.standard_normal((2, 4))
    R = np.diag([0.5, 2.0])
    K = kalman_gain(P, H, R)
    oracle = P @ H.T @ np.linalg.inv(H @ P @ H.T + R)
    assert K == pytest.approx(oracle, rel=1e-10)


def test_kalman_gain_singular_raises():
    with pytest.raises(SingularInnovationCovarianceError):
        kalman_gain(np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]]))


# ---------------------------------------------------------------------------
# Joint model functions: whole-model oracles of the filter's state
# derivative and output equation, differenced by the tests below


def f_v(cfg, x_v, u, cp):
    """Joint state derivative: wall dynamics plus zero parameter drift."""
    ev = ekf_evaluation(cfg, x_v, u, cp)
    wall = WallState(float(x_v[0]), float(x_v[1]))
    rates, _ = wall_rhs(wall, ev.steady_walls, ev.Q_h, ev.Q_c, cfg.wall)
    return np.array(rates + (0.0,) * (cfg.n_states - 2))


def g_v(cfg, x_v, u, cp):
    """Output equation: both outlet temperatures (row selection for the
    measured subset happens in the update)."""
    outlets = ekf_evaluation(cfg, x_v, u, cp).outlets
    return np.array((outlets.T_h2, outlets.T_c2))


def test_f_v_parameter_rows_are_zero():
    cfg = make_cfg("B")
    st = steady_state_for(cfg, mdot_c0=1.0)
    x = st.x_hat.copy()
    x[0] += 2.0  # off steady so the wall actually moves
    dx = f_v(cfg, x, U, CP)
    assert dx.shape == (5,)
    assert dx[2] == 0.0 and dx[3] == 0.0 and dx[4] == 0.0
    assert abs(dx[0]) > 0.0


def test_f_v_jacobian_structure():
    cfg = make_cfg("A")
    st = steady_state_for(cfg)
    x = st.x_hat.copy()
    x[0] += 2.0
    x[1] += 1.0
    F = central_jacobian(lambda z: f_v(cfg, z, U, CP), x)
    assert F.shape == (4, 4)
    assert np.all(F[2:, :] == 0.0)  # parameters have no dynamics
    assert abs(F[0, 0]) > 0.0  # wall relaxes on itself
    assert abs(F[0, 2]) + abs(F[1, 2]) > 0.0  # conductance drives the wall


def test_g_v_matches_evaluation_and_senses_upsilon():
    cfg = make_cfg("A")
    st = steady_state_for(cfg)
    y = g_v(cfg, st.x_hat, U, CP)
    ev = ekf_evaluation(cfg, st.x_hat, U, CP)
    assert y == pytest.approx([ev.outlets.T_h2, ev.outlets.T_c2], rel=1e-12)
    H = central_jacobian(lambda z: g_v(cfg, z, U, CP), st.x_hat)
    # more hot-side conductance cools the hot outlet
    assert H[0, 2] < 0.0
    # more cold-side conductance warms the cold outlet
    assert H[1, 3] > 0.0
    # cross sensitivities are near zero by structure: with the wall state
    # given, each outlet equation only contains its own side (the other
    # factor leaks in weakly through the beta selection)
    assert abs(H[1, 2]) < 1e-4 * abs(H[0, 2])
    assert abs(H[0, 3]) < 1e-4 * abs(H[1, 3])


def test_variant_b_uses_estimated_cold_flow():
    cfg_a, cfg_b = make_cfg("A"), make_cfg("B")
    st_b = steady_state_for(cfg_b, mdot_c0=0.5)  # estimate disagrees with u
    y_b = g_v(cfg_b, st_b.x_hat, U, CP)
    y_a = g_v(cfg_a, st_b.x_hat[:4], U, CP)
    assert abs(y_b[1] - y_a[1]) > 0.1  # halved flow changes the cold outlet


# ---------------------------------------------------------------------------
# Model inputs at the joint state


def test_model_inputs_variant_a_passes_inlets_through():
    x = np.array([350.0, 320.0, 1500.0, 3000.0])
    u_eff, cond_out, cond_steady = model_inputs(make_cfg("A"), x, U, CP)
    assert u_eff is U
    # constant correlations: alpha_A = upsilon
    assert cond_out == cond_steady == Conductances(1500.0, 3000.0)


@pytest.mark.parametrize("variant", ["B", "C"])
@pytest.mark.parametrize("mdot_state, mdot_used", [(0.7, 0.7), (0.004, 0.01), (-2.0, 0.01)])
def test_model_inputs_substitutes_floored_cold_flow(variant, mdot_state, mdot_used):
    cfg = make_cfg(variant, corr_cold=CorrelationParams(exp1=0.8))
    assert MDOT_FLOOR == 0.01
    x = np.array([350.0, 320.0, 1500.0, 3000.0, mdot_state])
    u_eff, cond_out, cond_steady = model_inputs(cfg, x, U, CP)
    assert u_eff == InletConditions(U.T_h1, U.T_c1, U.mdot_h, mdot_used)
    expected = alpha_A(CorrelationParams(exp1=0.8), 3000.0, mdot_used, CP.theta4)
    assert cond_out.aA_c == cond_steady.aA_c == expected


def test_model_inputs_floors_leading_factors():
    cfg = make_cfg(
        "A",
        corr_hot=CorrelationParams(exp1=0.6, exp2=0.3),
        corr_cold=CorrelationParams(exp2=0.2, offset=5.0),
    )
    cp = CpParams(1010.0, 1990.0, 1000.0, 2000.0)
    _, cond_out, cond_steady = model_inputs(cfg, np.array([350.0, 320.0, 0.2, -40.0]), U, cp)
    hot, cold = cfg.corr_hot, cfg.corr_cold
    assert cond_out == Conductances(alpha_A(hot, UPSILON_FLOOR, U.mdot_h, cp.theta3),
                                    alpha_A(cold, UPSILON_FLOOR, U.mdot_c, cp.theta4))
    assert cond_steady == Conductances(alpha_A(hot, UPSILON_FLOOR, U.mdot_h, cp.theta5),
                                       alpha_A(cold, UPSILON_FLOOR, U.mdot_c, cp.theta6))


# ---------------------------------------------------------------------------
# Chain-rule Jacobians against central differences


def chain_jacobians(cfg, z, u, cp, inputs=model_inputs):
    """F[:2, :] and H at z, by the chain rule from the public partials,
    with the model inputs of inputs(cfg, z, u, cp).  dtau/dp, the
    partials of evaluation_tau over the parameter states p = z[2:], is a
    central stencil of the wall-free map p -> tau."""
    def evaluation_terms(w):
        u_eff, cond_out, cond_steady = inputs(cfg, w, u, cp)
        return u_eff, cond_out, cond_steady, approx_steady_terms(u_eff, cond_steady, cp)

    def tau(p):
        u_eff, cond_out, _, steady = evaluation_terms(np.concatenate((z[:2], p)))
        return np.array(evaluation_tau(u_eff, cond_out, steady))

    dtau = reference_jacobian(tau, z[2:], JACOBIAN_REL_STEP, JACOBIAN_ABS_STEP)
    u_eff, cond_out, cond_steady, steady = evaluation_terms(z)
    wall = WallState(float(z[0]), float(z[1]))
    ev = evaluate_approx(wall, u_eff, cond_out, cp, steady)
    d = approx_partials(wall, u_eff, cond_out, cp, ev, dtau.T.tolist())
    F = wall_rhs_jacobian(wall, ev.steady_walls, ev.Q_h, ev.Q_c, d.Q_h, d.Q_c, cfg.wall,
                          d.steady_walls)
    return np.array(F), np.array((d.T_h2, d.T_c2))


def stencil_keeps_sector_and_branches(cfg, z, u, cp, indices=(0, 1)):
    """Whether every point of the central stencil about z in the states
    ``indices`` has the sector and both beta branches of z."""
    def key(w):
        ev = ekf_evaluation(cfg, w, u, cp)
        sector = classify_sector(ev.steady_walls.T_w1 - w[0], ev.steady_walls.T_w2 - w[1],
                                 SECTOR_V_EPSILON)
        return (sector, ev.beta_hot.branch, ev.beta_hot.feasible_set_empty,
                ev.beta_cold.branch, ev.beta_cold.feasible_set_empty)

    center = key(z)
    for i in indices:
        h = max(JACOBIAN_REL_STEP * abs(z[i]), JACOBIAN_ABS_STEP)
        for sign in (1.0, -1.0):
            w = z.copy()
            w[i] += sign * h
            if key(w) != center:
                return False
    return True


ORACLE_CFG = dict(
    corr_hot=CorrelationParams(exp1=0.6, exp2=0.1),
    corr_cold=CorrelationParams(exp1=0.8, offset=5.0),
)
ORACLE_OFFSETS = [
    (2.0, 1.0), (-2.0, -1.0), (2.0, -1.0), (-1.0, 2.0),  # sectors III, I, II, IV
    (-20.0, -15.0), (25.0, 30.0),  # beta_LM on both sides, far out
    (-64.0, 40.0), (-48.0, 48.0), (-64.0, 8.0),  # beta*_2 on one side or both
    (40.0, -8.0), (-80.0, 8.0), (40.0, -72.0),  # beta = 0, an empty feasible set
]


def oracle_point(cfg, offset):
    ups = (1500.0, 3000.0)
    steady = ekf_evaluation(cfg, np.array([350.0, 320.0, *ups, 0.8]), U, CP).steady_walls
    return np.array([steady.T_w1 + offset[0], steady.T_w2 + offset[1], *ups]
                    + ([0.8] if cfg.n_states == 5 else []))


@pytest.mark.parametrize("offset", ORACLE_OFFSETS)
@pytest.mark.parametrize("variant", ["A", "B"])
def test_analytic_wall_columns_match_central_differences(variant, offset):
    cfg = make_cfg(variant, **ORACLE_CFG)
    z = oracle_point(cfg, offset)
    assert stencil_keeps_sector_and_branches(cfg, z, U, CP)
    F, H = chain_jacobians(cfg, z, U, CP)
    F_num = central_jacobian(lambda w: f_v(cfg, w, U, CP), z)[:2, :2]
    H_num = central_jacobian(lambda w: g_v(cfg, w, U, CP), z)[:, :2]
    assert np.max(np.abs(F[:, :2] - F_num)) <= 1e-6 * np.max(np.abs(F_num))
    assert np.max(np.abs(H[:, :2] - H_num)) <= 1e-6 * np.max(np.abs(H_num))


@pytest.mark.parametrize("offset", ORACLE_OFFSETS)
@pytest.mark.parametrize("variant", ["A", "B"])
def test_chain_rule_parameter_columns_match_the_whole_stencil(variant, offset):
    # The old parameter columns: central differences of f_v and g_v over
    # the parameter states, which move the steady walls and beta_LM too.
    cfg = make_cfg(variant, **ORACLE_CFG)
    z = oracle_point(cfg, offset)
    assert stencil_keeps_sector_and_branches(cfg, z, U, CP, indices=range(z.size))
    F, H = chain_jacobians(cfg, z, U, CP)
    F_num = central_jacobian(lambda w: f_v(cfg, w, U, CP), z)[:2, 2:]
    H_num = central_jacobian(lambda w: g_v(cfg, w, U, CP), z)[:, 2:]
    # per relative change of each parameter, so that the W/K and kg/s
    # columns share one scale
    scale = np.abs(z[2:])
    for got, want in ((F[:, 2:], F_num), (H[:, 2:], H_num)):
        assert np.max(np.abs(got - want) * scale) <= 1e-6 * np.max(np.abs(want) * scale)


def test_analytic_wall_columns_at_the_steady_state_match_the_stencil():
    # wall_rhs is zero in sector V; the stencil about the steady state
    # leaves it along the axes, and the analytic F takes that limit.
    cfg = make_cfg("A", **ORACLE_CFG)
    st = steady_state_for(cfg)
    walls = ekf_evaluation(cfg, st.x_hat, U, CP).steady_walls
    z = np.array([walls.T_w1, walls.T_w2, *st.x_hat[2:]])
    assert np.array_equal(f_v(cfg, z, U, CP), np.zeros(4))
    F, _ = chain_jacobians(cfg, z, U, CP)
    F_ww = F[:, :2]
    F_num = central_jacobian(lambda w: f_v(cfg, w, U, CP), z)[:2, :2]
    assert F_ww[0, 1] == F_ww[1, 0] == F_num[0, 1] == F_num[1, 0] == 0.0
    assert np.diag(F_ww) == pytest.approx(np.diag(F_num), rel=1e-6)
    assert np.all(np.diag(F_ww) < 0.0)


@pytest.mark.parametrize("variant", ["A", "B"])
def test_parameter_columns_at_the_steady_state_are_zero(variant):
    # In the dead band wall_rhs is zero whatever the parameters, so its
    # parameter columns are zero; the outlets still sense the parameters.
    cfg = make_cfg(variant, **ORACLE_CFG)
    z = oracle_point(cfg, (0.0, 0.0))
    assert np.array_equal(f_v(cfg, z, U, CP), np.zeros(cfg.n_states))
    F, H = chain_jacobians(cfg, z, U, CP)
    assert np.array_equal(F[:, 2:], np.zeros((2, cfg.n_states - 2)))
    assert np.all(np.diag(F[:, :2]) < 0.0)
    assert H[0, 2] < 0.0 and H[1, 3] > 0.0
    # the whole stencil leaves the dead band as the steady walls move
    F_num = central_jacobian(lambda w: f_v(cfg, w, U, CP), z)[:2, 2:]
    assert np.max(np.abs(F_num)) > 0.0


@pytest.mark.parametrize("variant", ["A", "B"])
def test_predict_and_update_count_evaluations_and_stencils(variant, monkeypatch):
    # Each predict visits one parameter point: four evaluations per
    # substep (the RK4 stages) and one stencil of the wall-free tau map.
    calls = Counter()

    def counted(name):
        fn = getattr(hxtwin.ekf, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    cfg = make_cfg(variant, **ORACLE_CFG)
    st = EkfState(oracle_point(cfg, (2.0, -1.0)), cfg.process_noise_density())
    for name in ("evaluate_approx", "central_jacobian"):
        monkeypatch.setattr(hxtwin.ekf, name, counted(name))
    pred = ekf_predict(st, cfg, U, CP, 1.0)
    assert calls == {"evaluate_approx": 4 * cfg.wall.substeps_per_sample,
                     "central_jacobian": 1}
    y = g_v(cfg, pred.x_hat, U, CP)
    calls.clear()
    ekf_update(pred, cfg, U, CP, y, 1.0)
    assert calls == {"evaluate_approx": 1, "central_jacobian": 1}


# ---------------------------------------------------------------------------
# Predict and update against an uncached reference, which recomputes the
# parameter-only terms at every evaluation.  The reference takes its F and
# H from the same chain rule, at every substep, and integrates the
# covariance with the four RK4 stages: x_hat and the update agree byte for
# byte, the predicted P to the rounding of the Horner form (HORNER_REL).
# The independent check of the parameter columns against the whole-model
# stencil is test_chain_rule_parameter_columns_match_the_whole_stencil.


def reference_inputs(cfg, z, u, cp):
    if cfg.n_states == 5:
        u = InletConditions(u.T_h1, u.T_c1, u.mdot_h, max(float(z[4]), MDOT_FLOOR))
    ups_h, ups_c = max(float(z[2]), UPSILON_FLOOR), max(float(z[3]), UPSILON_FLOOR)
    cond_out = Conductances(alpha_A(cfg.corr_hot, ups_h, u.mdot_h, cp.theta3),
                            alpha_A(cfg.corr_cold, ups_c, u.mdot_c, cp.theta4))
    cond_steady = Conductances(alpha_A(cfg.corr_hot, ups_h, u.mdot_h, cp.theta5),
                               alpha_A(cfg.corr_cold, ups_c, u.mdot_c, cp.theta6))
    return u, cond_out, cond_steady


def reference_evaluation(cfg, z, u, cp):
    wall = WallState(float(z[0]), float(z[1]))
    u, cond_out, cond_steady = reference_inputs(cfg, z, u, cp)
    return evaluate_approx(wall, u, cond_out, cp, approx_steady_terms(u, cond_steady, cp))


def reference_f(cfg, z, u, cp):
    ev = reference_evaluation(cfg, z, u, cp)
    wall = WallState(float(z[0]), float(z[1]))
    (d1, d2), _ = wall_rhs(wall, ev.steady_walls, ev.Q_h, ev.Q_c, cfg.wall)
    out = np.zeros(cfg.n_states)
    out[0] = d1
    out[1] = d2
    return out


def reference_g(cfg, z, u, cp):
    ev = reference_evaluation(cfg, z, u, cp)
    return np.array([ev.outlets.T_h2, ev.outlets.T_c2])


def reference_predict(state, cfg, u, cp, dt):
    x, P = state.x_hat.copy(), state.P.copy()
    Q = cfg.process_noise_density()
    h = dt / cfg.wall.substeps_per_sample

    def f(z):
        return reference_f(cfg, z, u, cp)

    def pdot(M, F):
        return F @ M + M @ F.T + Q

    for _ in range(cfg.wall.substeps_per_sample):
        F = np.zeros((cfg.n_states, cfg.n_states))
        F[:2] = chain_jacobians(cfg, x, u, cp, reference_inputs)[0]
        k1 = f(x)
        p1 = pdot(P, F)
        k2 = f(x + 0.5 * h * k1)
        p2 = pdot(P + 0.5 * h * p1, F)
        k3 = f(x + 0.5 * h * k2)
        p3 = pdot(P + 0.5 * h * p2, F)
        k4 = f(x + h * k3)
        p4 = pdot(P + h * p3, F)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        P = P + (h / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
    return x, 0.5 * (P + P.T)


def reference_update(state, cfg, u, cp, y_meas, dt):
    rows = list(cfg.measured_rows)
    y_pred = reference_g(cfg, state.x_hat, u, cp)
    H = chain_jacobians(cfg, state.x_hat, u, cp, reference_inputs)[1][rows, :]
    innovation = y_meas - y_pred[rows]
    K = kalman_gain(state.P, H, (cfg.r_y_density / dt) * np.eye(len(rows)))
    x = state.x_hat + K @ innovation
    P = state.P - K @ H @ state.P
    P = 0.5 * (P + P.T)
    x[2] = max(x[2], UPSILON_FLOOR)
    x[3] = max(x[3], UPSILON_FLOOR)
    if cfg.n_states == 5:
        x[4] = max(x[4], MDOT_FLOOR)
    return x, P, innovation, y_pred


# The Horner covariance step is the same polynomial in h as the four
# RK4 stages, rounded differently: a relative bound well above 1e-16
# per operation and well below any effect on the filter.
HORNER_REL = 1e-13


@pytest.mark.parametrize("variant", ["A", "B"])
def test_predict_and_update_match_uncached_reference(variant):
    cfg = make_cfg(variant, **ORACLE_CFG)
    u = InletConditions(400.0, 300.0, 1.1, 0.9)
    cp = CpParams(1010.0, 1990.0, 1000.0, 2000.0)
    x0 = [352.0, 331.0, 1450.0, 3100.0] + ([0.95] if variant == "B" else [])
    rng = np.random.default_rng(5)
    A = rng.standard_normal((len(x0), len(x0)))
    st = EkfState(np.array(x0), A @ A.T + np.diag(np.abs(x0)))
    for _ in range(3):
        pred = ekf_predict(st, cfg, u, cp, 0.5)
        x_ref, P_ref = reference_predict(st, cfg, u, cp, 0.5)
        assert np.array_equal(pred.x_hat, x_ref)
        assert np.max(np.abs(pred.P - P_ref)) <= HORNER_REL * np.max(np.abs(P_ref))
        assert np.array_equal(pred.P, pred.P.T)
        y_meas = reference_g(cfg, pred.x_hat, u, cp) + np.array([0.3, -0.2])
        post, innov, y_pred = ekf_update(pred, cfg, u, cp, y_meas, 0.5)
        ref = reference_update(pred, cfg, u, cp, y_meas, 0.5)
        for got, want in zip((post.x_hat, post.P, innov, y_pred), ref):
            assert np.array_equal(got, want)
        st = post


# ---------------------------------------------------------------------------
# Predict


def test_predict_parameter_variance_grows_linearly():
    # Parameter rows of F vanish, so P[2,2] integrates exactly to
    # P0 + r_upsilon * dt regardless of the wall coupling.
    cfg = make_cfg("A")
    st = steady_state_for(cfg)
    out = ekf_predict(st, cfg, U, CP, 3.0)
    assert out.P[2, 2] == pytest.approx(1000.0 + 3.0 * 1000.0, rel=1e-9)
    assert out.P[3, 3] == pytest.approx(1000.0 + 3.0 * 1000.0, rel=1e-9)
    assert np.allclose(out.P, out.P.T)


def test_predict_wall_variance_saturates_below_free_growth():
    # With quiet parameters the mean-reverting wall state holds its
    # variance near Q00/(2|F00|), far below the unforced r_x * t ramp.
    # dt is one sample period per call; long horizons loop.
    cfg = make_cfg("A", r_upsilon_density=1e-9)
    st = steady_state_for(cfg)
    for _ in range(30):
        st = ekf_predict(st, cfg, U, CP, 1.0)
    assert st.P[0, 0] < 0.01
    assert st.P[0, 0] > 1e-4


def test_predict_relaxes_wall_toward_steady():
    cfg = make_cfg("A")
    st = steady_state_for(cfg)
    x = st.x_hat.copy()
    x[0] += 3.0
    x[1] += 3.0
    moved = ekf_predict(EkfState(x, st.P.copy()), cfg, U, CP, 10.0)
    assert abs(moved.x_hat[0] - st.x_hat[0]) < 3.0
    assert moved.x_hat[2] == x[2]  # parameters coast


def test_predict_validates_shapes_and_dt():
    cfg = make_cfg("A")
    st = steady_state_for(cfg)
    for dt in (0.0, -1.0):
        with pytest.raises(ValueError, match="dt must be positive"):
            ekf_predict(st, cfg, U, CP, dt)
    bad = EkfState(np.zeros(5), np.eye(5))
    with pytest.raises(DimensionMismatchError):
        ekf_predict(bad, cfg, U, CP, 1.0)


# ---------------------------------------------------------------------------
# Update


def test_update_moves_upsilon_against_innovation_sign():
    # Measured hot outlet warmer than predicted means the model moves too
    # much heat: the hot leading factor must come down.
    cfg = make_cfg("A")
    st = steady_state_for(cfg)
    y_pred = g_v(cfg, st.x_hat, U, CP)
    y_meas = y_pred + np.array([0.5, 0.0])
    new, innov, y0 = ekf_update(st, cfg, U, CP, y_meas, 1.0)
    assert innov == pytest.approx([0.5, 0.0], abs=1e-12)
    assert y0 == pytest.approx(y_pred, rel=1e-12)
    assert new.x_hat[2] < st.x_hat[2]


def test_update_reduces_covariance():
    cfg = make_cfg("A")
    st = steady_state_for(cfg)
    y = g_v(cfg, st.x_hat, U, CP)
    new, _, _ = ekf_update(st, cfg, U, CP, y, 1.0)
    assert np.trace(new.P) < np.trace(st.P)
    assert np.min(np.linalg.eigvalsh(new.P)) > -1e-9


def test_update_with_huge_noise_barely_moves():
    cfg = make_cfg("A", r_y_density=1e12)
    st = steady_state_for(cfg)
    y = g_v(cfg, st.x_hat, U, CP) + np.array([5.0, -5.0])
    new, _, _ = ekf_update(st, cfg, U, CP, y, 1.0)
    assert np.max(np.abs(new.x_hat - st.x_hat)) < 1e-4


def test_update_applies_floors():
    cfg = make_cfg("A")
    st = steady_state_for(cfg)
    st.P[2, 2] = 1e9  # make the filter willing to move upsilon far
    y = g_v(cfg, st.x_hat, U, CP) + np.array([50.0, -50.0])
    new, _, _ = ekf_update(st, cfg, U, CP, y, 1.0)
    assert new.x_hat[2] >= UPSILON_FLOOR
    assert new.x_hat[3] >= UPSILON_FLOOR


def test_update_variant_c_single_channel():
    cfg = make_cfg("C")
    st = steady_state_for(cfg, mdot_c0=1.0)
    y_pred = g_v(cfg, st.x_hat, U, CP)
    new, innov, _ = ekf_update(st, cfg, U, CP, np.array([y_pred[0] + 0.2]), 1.0)
    assert innov.shape == (1,)
    with pytest.raises(DimensionMismatchError):
        ekf_update(st, cfg, U, CP, np.array([1.0, 2.0]), 1.0)


def test_update_validates_dt():
    cfg = make_cfg("A")
    st = steady_state_for(cfg)
    y = g_v(cfg, st.x_hat, U, CP)
    with pytest.raises(ValueError):
        ekf_update(st, cfg, U, CP, y, 0.0)


# ---------------------------------------------------------------------------
# Estimation behavior


def test_estimate_kA_serial_composition():
    cfg = make_cfg("A")
    x = np.array([350.0, 320.0, 1500.0, 3000.0])
    assert estimate_kA(cfg, x, U, CP) == pytest.approx(1000.0, rel=1e-12)
    floored = np.array([350.0, 320.0, -5.0, 3000.0])
    assert estimate_kA(cfg, floored, U, CP) == pytest.approx(
        serial_conductance(1.0, 3000.0), rel=1e-12
    )


def test_filter_converges_to_true_overall_rating():
    # Individual leading factors are not identifiable at one steady
    # point, but their serial composition is; a mismatched start must
    # pull kA back to the truth when fed self-consistent measurements.
    cfg = make_cfg("A")
    true_ups = (1500.0, 3000.0)
    _, walls = approx_steady_walls(U, Conductances(*true_ups), CP)
    x_true = np.array([walls.T_w1, walls.T_w2, *true_ups])
    y_true = g_v(cfg, x_true, U, CP)

    st = ekf_init(cfg, walls, (1800.0, 2700.0))
    for _ in range(50):
        st = ekf_predict(st, cfg, U, CP, 1.0)
        st, _, _ = ekf_update(st, cfg, U, CP, y_true, 1.0)
    kA_hat = estimate_kA(cfg, st.x_hat, U, CP)
    assert kA_hat == pytest.approx(1000.0, abs=10.0)
    # and the innovation has collapsed
    assert np.max(np.abs(y_true - g_v(cfg, st.x_hat, U, CP))) < 0.02
