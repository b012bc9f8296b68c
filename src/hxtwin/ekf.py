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

F and H come from the chain rule, not from differences of the whole
model.  An evaluation and the wall dynamics read the parameter states
p = x_v[2:] only through the parameter terms
tau = (aA_h, aA_c, mdot_c, beta_LM hot, beta_LM cold, T_w1s, T_w2s).
dtau/dp is one central stencil per predict or update (central_jacobian),
taken on the map p -> tau, which does not read the walls and so never
straddles a wall sector or a beta branch switch of the outlets.  The
partials in the walls and in tau are closed form: the closed-form root
has closed-form partials (approx_model.approx_partials), and the wall
dynamics differentiate within their active sector
(wall_dynamics.wall_rhs_jacobian, which also states the sector-V rule).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .approx_model import (
    ApproxEvaluation,
    CpParams,
    approx_partials,
    approx_steady_terms,
    evaluate_approx,
    evaluation_tau,
)
from .correlations import CorrelationParams, alpha_A
from .reference_model import Conductances, InletConditions, WallState
from .wall_dynamics import WallDynamicsConfig, rk4_step, wall_rhs, wall_rhs_jacobian

__all__ = [
    "VARIANTS",
    "DimensionMismatchError",
    "SingularInnovationCovarianceError",
    "EkfConfig",
    "EkfState",
    "ekf_init",
    "model_inputs",
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
    corr_hot: CorrelationParams  # upsilon supplied by the state
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
    """Joint estimate and covariance; the caller keeps the time."""

    x_hat: np.ndarray  # [T_w1, T_w2, upsilon_h, upsilon_c(, mdot_c)]
    P: np.ndarray


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
    mdot_c0: float | None = None,
) -> EkfState:
    """Initial estimate with P = 1 s times the process noise density."""
    x = [wall0.T_w1, wall0.T_w2, upsilon0[0], upsilon0[1]]
    if cfg.n_states == 5:
        if mdot_c0 is None:
            raise DimensionMismatchError(
                f"variant {cfg.variant} estimates mdot_c; mdot_c0 is required"
            )
        x.append(mdot_c0)
    P0 = 1.0 * cfg.process_noise_density()
    return EkfState(np.asarray(x, dtype=float), P0)


def model_inputs(
    cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams
) -> tuple[InletConditions, Conductances, Conductances]:
    """Approximate-model inputs at the joint state x_v.

    The one place that floors the parameter states.  Returns the
    effective inlets (variants B and C substitute the estimated cold
    flow, floored at MDOT_FLOOR) and the output and steady conductances
    of the monitored correlations at the leading factors, floored at
    UPSILON_FLOOR.  The output conductances take the transient mean cps
    theta3/theta4, the steady ones theta5/theta6.  Only the parameter
    states x_v[2:] are read.
    """
    if cfg.n_states == 5:
        u = replace(u, mdot_c=max(float(x_v[4]), MDOT_FLOOR))
    ups_h = max(float(x_v[2]), UPSILON_FLOOR)
    ups_c = max(float(x_v[3]), UPSILON_FLOOR)

    def conductances(cp_h: float, cp_c: float) -> Conductances:
        return Conductances(alpha_A(cfg.corr_hot, ups_h, u.mdot_h, cp_h),
                            alpha_A(cfg.corr_cold, ups_c, u.mdot_c, cp_c))

    return u, conductances(cp.theta3, cp.theta4), conductances(cp.theta5, cp.theta6)


def _parameter_terms(cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams):
    """What an evaluation at x_v takes from the parameter states x_v[2:]
    alone: the effective inlets, the output conductances and the steady
    terms at the steady conductances of model_inputs."""
    u_eff, cond_out, cond_steady = model_inputs(cfg, x_v, u, cp)
    return u_eff, cond_out, approx_steady_terms(u_eff, cond_steady, cp)


def _tau_partials(cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams):
    """dtau/dp over the parameter states p = x_v[2:], as one row of
    evaluation_tau partials per parameter (the dtau of approx_partials),
    by central_jacobian of the map p -> tau, which does not read the
    walls."""
    def tau_at(p: np.ndarray) -> np.ndarray:
        z = x_v.copy()
        z[2:] = p
        return np.array(evaluation_tau(*_parameter_terms(cfg, z, u, cp)))

    return central_jacobian(tau_at, x_v[2:]).T.tolist()


def _walls(x_v: np.ndarray) -> WallState:
    return WallState(float(x_v[0]), float(x_v[1]))


def _evaluate(wall: WallState, terms, cp: CpParams) -> ApproxEvaluation:
    u_eff, cond_out, steady = terms
    return evaluate_approx(wall, u_eff, cond_out, cp, steady)


def _wall_rates(cfg: EkfConfig, wall: WallState, ev: ApproxEvaluation) -> tuple[float, float]:
    return wall_rhs(wall, ev.steady_walls, ev.Q_h, ev.Q_c, cfg.wall)[0]


def ekf_evaluation(
    cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams
) -> ApproxEvaluation:
    """Approximate-model evaluation at the joint state x_v, with the
    inputs of model_inputs."""
    return _evaluate(_walls(x_v), _parameter_terms(cfg, x_v, u, cp), cp)


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
    """Propagate estimate and covariance over dt > 0 under zero-order-hold u.

    Both integrate with fixed-step RK4 using the wall config's substep
    count.  The parameter states do not move, so the walls integrate by
    wall_dynamics.rk4_step at one parameter point, and dtau/dp is taken
    once.  F is evaluated once per substep, from the first-stage
    evaluation that also gives k1: its wall columns and, through
    dtau/dp, its parameter columns by the chain rule.  With F held the
    covariance ODE is linear, and its RK4 step is the polynomial
    P + h (k + h/2 L(k + h/3 L(k + h/4 L(k)))) with
    L(M) = F M + M F' and k = L(P) + Q, which is the four stages in
    Horner form.  dt is one telemetry sample period: the substep count
    is sized for that, so long horizons must loop rather than stretch a
    single call past the integrator's stability region.
    """
    _check_state(cfg, state)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = state.x_hat.copy()
    P = state.P
    Q = cfg.process_noise_density()
    substeps = cfg.wall.substeps_per_sample
    h = dt / substeps
    terms = _parameter_terms(cfg, x, u, cp)
    u_eff, cond_out, _ = terms
    dtau = _tau_partials(cfg, x, u, cp)
    F = np.zeros((cfg.n_states, cfg.n_states))

    def rates(wall: WallState) -> tuple[float, float]:
        return _wall_rates(cfg, wall, _evaluate(wall, terms, cp))

    def lyap(M: np.ndarray) -> np.ndarray:  # F M + M F', M symmetric
        G = F @ M
        return G + G.T

    wall = _walls(x)
    for _ in range(substeps):
        ev = _evaluate(wall, terms, cp)
        d = approx_partials(wall, u_eff, cond_out, cp, ev, dtau)
        F[:2] = wall_rhs_jacobian(
            wall, ev.steady_walls, ev.Q_h, ev.Q_c, d.Q_h, d.Q_c, cfg.wall, d.steady_walls)
        # the covariance RK4 with F held, in Horner form
        k = lyap(P) + Q
        P = P + h * (k + (h / 2.0) * lyap(k + (h / 3.0) * lyap(k + (h / 4.0) * lyap(k))))
        wall = rk4_step(rates, wall, h, _wall_rates(cfg, wall, ev))
    x[0], x[1] = wall.T_w1, wall.T_w2
    P = 0.5 * (P + P.T)
    return EkfState(x, P)


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
    terms = _parameter_terms(cfg, x, u, cp)
    wall = _walls(x)
    ev = _evaluate(wall, terms, cp)
    y_pred = np.array((ev.outlets.T_h2, ev.outlets.T_c2))
    d = approx_partials(wall, terms[0], terms[1], cp, ev, _tau_partials(cfg, x, u, cp))
    H = np.array((d.T_h2, d.T_c2))
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
    return EkfState(x_new, P_new), innovation, y_pred


def estimate_kA(
    cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams
) -> float:
    """Serial overall rating of the output conductances of model_inputs."""
    return model_inputs(cfg, x_v, u, cp)[1].kA
