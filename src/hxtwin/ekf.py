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

An evaluation and the wall dynamics read the parameter states
p = x_v[2:] only through parameter_terms(cfg, p, u, cp), the one map from
the parameter states to the model terms: the floored cold flow and
conductances of ``conductances``, and approx_model.steady_terms at the
steady pair.  Its first seven entries are
tau = (aA_h, aA_c, mdot_c, beta_LM hot, beta_LM cold, T_w1s, T_w2s).

F and H come from the chain rule, not from differences of the whole
model.  dtau/dp is one central stencil per predict or update
(central_jacobian) of parameter_terms(...)[:7] on floats, a map that
does not read the walls and so never straddles a wall sector or a beta
branch switch.  The partials in the walls and in tau are closed form
(approx_model.partial_rows, and wall_dynamics.rhs_rows within the active
wall sector).  A predict takes its RK4 stages and F rows from one
ApproxStage on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx_model import ApproxEvaluation, CpParams, evaluate_approx, partial_rows, steady_terms
from .correlations import CorrelationParams, alpha_A, serial_conductance
from .reference_model import InletConditions, WallState
from .wall_dynamics import ApproxStage, WallDynamicsConfig, rk4_pair

__all__ = [
    "VARIANTS",
    "DimensionMismatchError",
    "SingularInnovationCovarianceError",
    "EkfConfig",
    "EkfState",
    "ekf_init",
    "conductances",
    "parameter_terms",
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


def conductances(cfg: EkfConfig, p, u: InletConditions, cp: CpParams) -> tuple:
    """(mdot_c, aA_h, aA_c, steady aA_h, steady aA_c) at the parameter
    states p = x_v[2:], on floats: the one place that floors them.

    The cold flow is u.mdot_c for variant A, the estimate floored at
    MDOT_FLOOR for B and C.  The conductances are the monitored
    correlations at the leading factors floored at UPSILON_FLOOR, the
    output pair at the transient mean cps theta3/theta4, the steady pair
    at theta5/theta6.
    """
    ups_h = max(float(p[0]), UPSILON_FLOOR)
    ups_c = max(float(p[1]), UPSILON_FLOOR)
    mdot_c = max(float(p[2]), MDOT_FLOOR) if cfg.n_states == 5 else u.mdot_c
    hot, cold = cfg.corr_hot, cfg.corr_cold
    return (mdot_c, alpha_A(hot, ups_h, u.mdot_h, cp.theta3),
            alpha_A(cold, ups_c, mdot_c, cp.theta4),
            alpha_A(hot, ups_h, u.mdot_h, cp.theta5), alpha_A(cold, ups_c, mdot_c, cp.theta6))


def parameter_terms(cfg: EkfConfig, p, u: InletConditions, cp: CpParams) -> tuple:
    """The terms evaluate_approx takes at the parameter states p = x_v[2:]:
    tau = (aA_h, aA_c, mdot_c, beta_LM hot, beta_LM cold, T_w1s, T_w2s) in
    partial_rows' dtau order, then (T_h2s, T_c2s), on floats."""
    mdot_c, aA_h, aA_c, s_h, s_c = conductances(cfg, p, u, cp)
    return (aA_h, aA_c, mdot_c, *steady_terms(
        u.T_h1, u.T_c1, u.mdot_h * cp.theta5, mdot_c * cp.theta6, s_h, s_c))


def _tau_partials(cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams):
    """dtau/dp over the parameter states p = x_v[2:], as one row of tau
    partials per parameter (the dtau of partial_rows), by central_jacobian
    of parameter_terms(...)[:7]."""
    return central_jacobian(lambda p: parameter_terms(cfg, p, u, cp)[:7], x_v[2:]).T.tolist()


def ekf_evaluation(
    cfg: EkfConfig, x_v: np.ndarray, u: InletConditions, cp: CpParams
) -> ApproxEvaluation:
    """Approximate-model evaluation at the joint state x_v."""
    return evaluate_approx(WallState(float(x_v[0]), float(x_v[1])), u, cp,
                           parameter_terms(cfg, x_v[2:], u, cp))


def central_jacobian(fun, x: np.ndarray) -> np.ndarray:
    """Central finite differences of fun with per-component steps
    max(JACOBIAN_REL_STEP * |x_i|, JACOBIAN_ABS_STEP).  fun takes a list
    of floats and returns a sequence."""
    x = np.asarray(x, dtype=float).tolist()
    cols = []
    for i, xi in enumerate(x):
        h = max(JACOBIAN_REL_STEP * abs(xi), JACOBIAN_ABS_STEP)
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        cols.append([(p - m) / (2.0 * h) for p, m in zip(fun(xp), fun(xm))])
    return np.array(cols).T


def ekf_predict(
    state: EkfState,
    cfg: EkfConfig,
    u: InletConditions,
    cp: CpParams,
    dt: float,
) -> EkfState:
    """Propagate estimate and covariance over a finite dt > 0 under
    zero-order-hold u.

    Both integrate with fixed-step RK4 using the wall config's substep
    count.  The parameter states do not move, so the walls integrate by
    wall_dynamics.rk4_pair on one ApproxStage, built once with dtau/dp.
    F is evaluated once per substep, with k1 by the stage's first call:
    its wall columns and, through dtau/dp, its parameter columns by the
    chain rule.  With F held the covariance ODE is linear, and its RK4
    step is the polynomial
    P + h (k + h/2 L(k + h/3 L(k + h/4 L(k)))) with
    L(M) = F M + M F' and k = L(P) + Q, which is the four stages in
    Horner form.  dt is one telemetry sample period: the substep count
    is sized for that, so long horizons must loop rather than stretch a
    single call past the integrator's stability region.
    """
    _check_state(cfg, state)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    x = state.x_hat.copy()
    P = state.P
    Q = cfg.process_noise_density()
    substeps = cfg.wall.substeps_per_sample
    h = dt / substeps
    stage = ApproxStage(u, cp, parameter_terms(cfg, x[2:], u, cp), cfg.wall,
                        _tau_partials(cfg, x, u, cp))
    F = np.zeros((cfg.n_states, cfg.n_states))

    def lyap(M: np.ndarray) -> np.ndarray:  # F M + M F', M symmetric
        G = F @ M
        return G + G.T

    w1, w2 = float(x[0]), float(x[1])
    for _ in range(substeps):
        k1, F[:2] = stage.rates_and_rows(w1, w2)
        # the covariance RK4 with F held, in Horner form
        k = lyap(P) + Q
        P = P + h * (k + (h / 2.0) * lyap(k + (h / 3.0) * lyap(k + (h / 4.0) * lyap(k))))
        w1, w2 = rk4_pair(stage.rates, w1, w2, h, k1)
    x[0], x[1] = w1, w2
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
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")

    x = state.x_hat
    terms = parameter_terms(cfg, x[2:], u, cp)
    w1, w2 = float(x[0]), float(x[1])
    ev = evaluate_approx(WallState(w1, w2), u, cp, terms)
    T_h2, T_c2 = ev.outlets.T_h2, ev.outlets.T_c2
    y_pred = np.array((T_h2, T_c2))
    H = np.array(partial_rows(
        w1, w2, u.T_h1, u.T_c1, terms[0], terms[1], u.mdot_h * cp.theta3,
        terms[2] * cp.theta4, cp.theta4, ev.beta_hot, ev.beta_cold, T_h2, T_c2,
        _tau_partials(cfg, x, u, cp))[:2])[list(rows), :]
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
    """Serial overall rating of the output conductances at x_v."""
    return serial_conductance(*conductances(cfg, x_v[2:], u, cp)[1:3])
