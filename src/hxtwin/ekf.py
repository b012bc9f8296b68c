"""Joint extended Kalman filter for online thermal performance monitoring.

The filter runs the approximate model only, so every evaluation is
closed form.  Wall temperatures and the correlation leading factors
upsilon_h/upsilon_c are estimated jointly from noisy outlet temperature
measurements; the parameters follow random walks driven purely by
process noise.  Three variants differ in how the cold mass flow enters:

* A: the measured cold flow is fed into the model input;
* B: the cold flow joins the state vector and is estimated;
* C: like B but the cold outlet measurement is unavailable.

Continuous-discrete formulation: noise enters as power spectral
densities, the covariance ODE Pdot = F P + P F' + R is integrated with
the state between samples, and the measurement variance is divided by
the sample interval in the gain.  Retuning is then unnecessary when the
telemetry rate changes (Simon, Optimal State Estimation, 2006, §13.2).

The wall columns of F and H are analytic: the closed-form root has
closed-form partials (approx_model.approx_wall_partials), and the wall
dynamics differentiate within their active sector
(wall_dynamics.wall_rhs_jacobian).  The parameter columns are central
differences over the parameter states alone (central_jacobian, whose
step constants set only those columns).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .approx_model import (
    ApproxEvaluation,
    CpParams,
    approx_steady_terms,
    approx_wall_partials,
    evaluate_approx,
)
from .correlations import CorrelationParams, alpha_A
from .reference_model import Conductances, InletConditions, WallState
from .wall_dynamics import WallDynamicsConfig, wall_rhs, wall_rhs_jacobian

__all__ = [
    "VARIANTS",
    "DimensionMismatchError",
    "SingularInnovationCovarianceError",
    "EkfConfig",
    "EkfState",
    "ekf_init",
    "floored_inputs",
    "steady_conductances",
    "model_inputs",
    "f_v",
    "g_v",
    "ekf_evaluation",
    "central_jacobian",
    "ekf_predict",
    "kalman_gain",
    "ekf_update",
    "estimate_kA",
]

VARIANTS = ("A", "B", "C")

JACOBIAN_REL_STEP = 1e-6  # Jacobian steps: max(rel * |x_i|, abs)
JACOBIAN_ABS_STEP = 1e-8
UPSILON_FLOOR = 1.0  # W/K, floor of the leading factors
MDOT_FLOOR = 0.01  # kg/s, floor of the estimated cold flow


class DimensionMismatchError(ValueError):
    """State, covariance, or measurement size disagrees with the variant."""


class SingularInnovationCovarianceError(RuntimeError):
    """The innovation covariance could not be inverted."""


@dataclass(frozen=True)
class EkfConfig:
    variant: str
    wall: WallDynamicsConfig
    corr_hot: CorrelationParams  # upsilon field supplied by the state
    corr_cold: CorrelationParams
    r_x_density: float  # K^2/s, per wall state
    r_upsilon_density: float  # (W/K)^2/s, per leading factor
    r_y_density: float  # K^2 s, per measured channel
    r_mdot_density: float = 0.1  # (kg/s)^2/s, variants B and C

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("r_x_density", "r_upsilon_density", "r_y_density", "r_mdot_density"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")

    @property
    def n_states(self) -> int:
        return 5 if self.variant in ("B", "C") else 4

    @property
    def measured_rows(self) -> tuple[int, ...]:
        return (0,) if self.variant == "C" else (0, 1)

    def process_noise_density(self) -> np.ndarray:
        d = [self.r_x_density, self.r_x_density,
             self.r_upsilon_density, self.r_upsilon_density]
        if self.n_states == 5:
            d.append(self.r_mdot_density)
        return np.diag(d)


@dataclass
class EkfState:
    x_hat: np.ndarray  # [T_w1, T_w2, upsilon_h, upsilon_c(, mdot_c)]
    P: np.ndarray
    t: float  # s


def _check_state(cfg: EkfConfig, state: EkfState) -> None:
    n = cfg.n_states
    if state.x_hat.shape != (n,) or state.P.shape != (n, n):
        raise DimensionMismatchError(
            f"variant {cfg.variant} needs x_hat ({n},) and P ({n}, {n}), "
            f"got {state.x_hat.shape} and {state.P.shape}"
        )


def ekf_init(
    cfg: EkfConfig,
    wall0: WallState,
    upsilon0: tuple[float, float],
    t0: float = 0.0,
    mdot_c0: float | None = None,
) -> EkfState:
    """Initial estimate with P(t0) = 1 s times the process noise density."""
    x = [wall0.T_w1, wall0.T_w2, upsilon0[0], upsilon0[1]]
    if cfg.n_states == 5:
        if mdot_c0 is None:
            raise DimensionMismatchError(
                f"variant {cfg.variant} estimates mdot_c; mdot_c0 is required"
            )
        x.append(mdot_c0)
    P0 = 1.0 * cfg.process_noise_density()
    return EkfState(np.asarray(x, dtype=float), P0, t0)


def floored_inputs(
    cfg: EkfConfig, x_v: np.ndarray, u: InletConditions
) -> tuple[InletConditions, CorrelationParams, CorrelationParams]:
    """The effective inlets and the monitored correlations at the joint
    state x_v, with the floors of model_inputs applied."""
    if cfg.n_states == 5:
        u = replace(u, mdot_c=max(float(x_v[4]), MDOT_FLOOR))
    hot = cfg.corr_hot.with_upsilon(max(float(x_v[2]), UPSILON_FLOOR))
    cold = cfg.corr_cold.with_upsilon(max(float(x_v[3]), UPSILON_FLOOR))
    return u, hot, cold


def steady_conductances(
    hot: CorrelationParams, cold: CorrelationParams, u: InletConditions, cp: CpParams
) -> Conductances:
    """Conductances of the correlations at the inlet flows of u and the
    steady mean cps theta5/theta6."""
    return Conductances(
        alpha_A(hot, u.mdot_h, cp.theta5),
        alpha_A(cold, u.mdot_c, cp.theta6),
    )


def model_inputs(
    cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams
) -> tuple[InletConditions, Conductances, Conductances]:
    """Approximate-model inputs at the joint state x_v.

    Returns the effective inlets (variants B and C substitute the
    estimated cold flow, floored at MDOT_FLOOR) and the output and
    steady conductances of the monitored correlations at the leading
    factors, floored at UPSILON_FLOOR.  The output conductances take the
    transient mean cps theta3/theta4, the steady ones theta5/theta6.
    Only the parameter states x_v[2:] are read.
    """
    u, hot, cold = floored_inputs(cfg, x_v, u)
    cond_out = Conductances(
        alpha_A(hot, u.mdot_h, cp.theta3),
        alpha_A(cold, u.mdot_c, cp.theta4),
    )
    return u, cond_out, steady_conductances(hot, cold, u, cp)


def _parameter_terms(cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams):
    """What an evaluation at x_v takes from the parameter states x_v[2:]
    alone: model_inputs plus the steady terms."""
    u_eff, cond_out, cond_steady = model_inputs(cfg, x_v, u, cp)
    return u_eff, cond_out, cond_steady, approx_steady_terms(u_eff, cond_steady, cp)


def _terms_per_parameter_point(cfg: EkfConfig, x_v: np.ndarray, u: InletConditions,
                               cp: CpParams):
    """terms(p) -> _parameter_terms at x_v with its parameter states
    x_v[2:] replaced by p, computed once per distinct p over the life of
    the returned function.

    The parameter rows of f are zero, so every substep of a predict
    visits the same few parameter points: the estimate and the points
    of the parameter columns' stencil.
    """
    cache = {}

    def terms(p: np.ndarray):
        key = p.tobytes()
        found = cache.get(key)
        if found is None:
            z = x_v.copy()
            z[2:] = p
            found = cache[key] = _parameter_terms(cfg, z, u, cp)
        return found

    return terms


def _walls(x_v: np.ndarray) -> WallState:
    return WallState(float(x_v[0]), float(x_v[1]))


def _evaluate(wall: WallState, terms, cp: CpParams) -> ApproxEvaluation:
    u_eff, cond_out, cond_steady, steady = terms
    return evaluate_approx(wall, u_eff, cond_out, cond_steady, cp, steady)


def _wall_rates(cfg: EkfConfig, wall: WallState, ev: ApproxEvaluation) -> tuple[float, float]:
    return wall_rhs(wall, ev.steady_walls, ev.Q_h, ev.Q_c, cfg.wall)[0]


def ekf_evaluation(
    cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams
) -> ApproxEvaluation:
    """Approximate-model evaluation at the joint state x_v, with the
    inputs of model_inputs."""
    return _evaluate(_walls(x_v), _parameter_terms(cfg, x_v, u, cp), cp)


def f_v(cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams) -> np.ndarray:
    """Joint state derivative: wall dynamics plus zero parameter drift."""
    rates = _wall_rates(cfg, _walls(x_v), ekf_evaluation(cfg, x_v, u, cp))
    return np.array(rates + (0.0,) * (cfg.n_states - 2))


def g_v(cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams) -> np.ndarray:
    """Output equation: both outlet temperatures (row selection for the
    measured subset happens in the update)."""
    outlets = ekf_evaluation(cfg, x_v, u, cp).outlets
    return np.array((outlets.T_h2, outlets.T_c2))


def central_jacobian(fun, x: np.ndarray) -> np.ndarray:
    """Central finite differences of fun with per-component steps
    max(JACOBIAN_REL_STEP * |x_i|, JACOBIAN_ABS_STEP)."""
    x = np.asarray(x, dtype=float)
    J = None
    for i in range(x.size):
        h = max(JACOBIAN_REL_STEP * abs(x[i]), JACOBIAN_ABS_STEP)
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        col = (fun(xp) - fun(xm)) / (2.0 * h)
        if J is None:
            J = np.empty((np.size(col), x.size))
        J[:, i] = col
    return J


def ekf_predict(
    state: EkfState,
    cfg: EkfConfig,
    u: InletConditions,
    cp: CpParams,
    dt: float,
) -> EkfState:
    """Propagate estimate and covariance over dt under zero-order-hold u.

    Both integrate with fixed-step RK4 using the wall config's substep
    count; F is evaluated once per substep and held for the covariance
    stages (the covariance ODE is linear given F).  The parameter states
    do not move, so the walls integrate on floats at one parameter
    point.  The wall columns of F are analytic (approx_wall_partials
    and wall_rhs_jacobian at the first stage); the parameter columns are
    central differences.  dt is one telemetry sample period: the
    substep count is sized for that, so long horizons must loop rather
    than stretch a single call past the integrator's stability region.
    """
    _check_state(cfg, state)
    if dt < 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    x = state.x_hat.copy()
    P = state.P.copy()
    if dt > 0.0:
        Q = cfg.process_noise_density()
        substeps = cfg.wall.substeps_per_sample
        h = dt / substeps
        params = x[2:]
        terms_at = _terms_per_parameter_point(cfg, x, u, cp)
        terms = terms_at(params)
        u_eff, cond_out = terms[0], terms[1]
        F = np.zeros((cfg.n_states, cfg.n_states))

        def rates(w1: float, w2: float) -> tuple[float, float]:
            wall = WallState(w1, w2)
            return _wall_rates(cfg, wall, _evaluate(wall, terms, cp))

        def rates_at(p: np.ndarray) -> np.ndarray:  # at the current walls
            return np.array(_wall_rates(cfg, wall, _evaluate(wall, terms_at(p), cp)))

        def pdot(M: np.ndarray) -> np.ndarray:  # F M + M F' + Q, M symmetric
            G = F @ M
            return G + G.T + Q

        w1, w2 = float(x[0]), float(x[1])
        for _ in range(substeps):
            wall = WallState(w1, w2)
            ev = _evaluate(wall, terms, cp)
            k1 = _wall_rates(cfg, wall, ev)
            d = approx_wall_partials(wall, u_eff, cond_out, cp, ev)
            F[:2, :2] = wall_rhs_jacobian(
                wall, ev.steady_walls, ev.Q_h, ev.Q_c, d.Q_h, d.Q_c, cfg.wall)
            F[:2, 2:] = central_jacobian(rates_at, params)
            p1 = pdot(P)
            k2 = rates(w1 + 0.5 * h * k1[0], w2 + 0.5 * h * k1[1])
            p2 = pdot(P + 0.5 * h * p1)
            k3 = rates(w1 + 0.5 * h * k2[0], w2 + 0.5 * h * k2[1])
            p3 = pdot(P + 0.5 * h * p2)
            k4 = rates(w1 + h * k3[0], w2 + h * k3[1])
            p4 = pdot(P + h * p3)
            w1 += (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            w2 += (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            P = P + (h / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        x[0], x[1] = w1, w2
        P = 0.5 * (P + P.T)
    return EkfState(x, P, state.t + dt)


def kalman_gain(P: np.ndarray, H: np.ndarray, R_disc: np.ndarray) -> np.ndarray:
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


def ekf_update(
    state: EkfState,
    cfg: EkfConfig,
    u: InletConditions,
    cp: CpParams,
    y_meas: np.ndarray,
    dt: float,
) -> tuple[EkfState, np.ndarray, np.ndarray]:
    """Measurement update at the current time.

    ``y_meas`` holds only the measured channels (hot outlet alone for
    variant C).  Returns the posterior state, the innovation, and the
    full predicted output vector.
    """
    _check_state(cfg, state)
    rows = cfg.measured_rows
    y_meas = np.asarray(y_meas, dtype=float)
    if y_meas.shape != (len(rows),):
        raise DimensionMismatchError(
            f"variant {cfg.variant} measures {len(rows)} channel(s), "
            f"got y_meas shape {y_meas.shape}"
        )
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    x = state.x_hat
    terms_at = _terms_per_parameter_point(cfg, x, u, cp)
    terms = terms_at(x[2:])
    wall = _walls(x)
    ev = _evaluate(wall, terms, cp)
    y_pred = np.array((ev.outlets.T_h2, ev.outlets.T_c2))
    d = approx_wall_partials(wall, terms[0], terms[1], cp, ev)
    H = np.empty((2, cfg.n_states))
    H[:, :2] = d.T_h2, d.T_c2

    def outputs_at(p: np.ndarray) -> np.ndarray:
        outlets = _evaluate(wall, terms_at(p), cp).outlets
        return np.array((outlets.T_h2, outlets.T_c2))

    H[:, 2:] = central_jacobian(outputs_at, x[2:])
    H = H[list(rows), :]
    innovation = y_meas - y_pred[list(rows)]
    R_disc = (cfg.r_y_density / dt) * np.eye(len(rows))
    K = kalman_gain(state.P, H, R_disc)
    x_new = state.x_hat + K @ innovation
    P_new = state.P - K @ H @ state.P
    P_new = 0.5 * (P_new + P_new.T)
    x_new[2] = max(x_new[2], UPSILON_FLOOR)
    x_new[3] = max(x_new[3], UPSILON_FLOOR)
    if cfg.n_states == 5:
        x_new[4] = max(x_new[4], MDOT_FLOOR)
    return EkfState(x_new, P_new, state.t), innovation, y_pred


def estimate_kA(
    cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams
) -> float:
    """Serial overall rating of the output conductances of model_inputs."""
    return model_inputs(cfg, x_v, u, cp)[1].kA
