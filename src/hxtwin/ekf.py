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
branch switch.  The partials in the walls and in tau are closed form:
approx_model.partial_rows, put through the active wall sector's chain
rule by wall_dynamics.ApproxStage.

The filter runs on plain floats, without numpy, so its output depends
on no BLAS kernel.  A predict takes its RK4 stages and F rows from one
ApproxStage and its covariance step from covariance_step, on P's unique
entries; an update forms S (1x1 or 2x2), the gain, x_hat and P in closed
form.  EkfState holds x_hat as a tuple and P as a tuple of row tuples.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import add

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
    "covariance_step",
    "ekf_predict",
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
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")

    @property
    def n_states(self) -> int:
        return 5 if self.variant in ("B", "C") else 4

    @property
    def measured_rows(self) -> tuple[int, ...]:
        return (0,) if self.variant == "C" else (0, 1)

    def process_noise_density(self) -> tuple[tuple[float, ...], ...]:
        d = (self.r_x_density,) * 2 + (self.r_upsilon_density,) * 2 + (self.r_mdot_density,)
        n = self.n_states
        return tuple((0.0,) * i + (d[i],) + (0.0,) * (n - 1 - i) for i in range(n))


@dataclass
class EkfState:
    """Joint estimate and covariance on floats; the caller keeps the time."""

    x_hat: tuple[float, ...]  # (T_w1, T_w2, upsilon_h, upsilon_c(, mdot_c))
    P: tuple[tuple[float, ...], ...]  # n rows of n


def _check_inputs(cfg: EkfConfig, state: EkfState, u: InletConditions) -> None:
    """The state's sizes for the variant, and finite inlets where the
    filter reads them: B and C take their cold flow from the state."""
    n = cfg.n_states
    sizes = (len(state.x_hat), len(state.P), *map(len, state.P))
    if sizes != (n,) * (n + 2):
        raise DimensionMismatchError(
            f"variant {cfg.variant} needs {n} states and P as {n} rows of {n}, "
            f"got {sizes[0]} states and P rows of lengths {sizes[2:]}"
        )
    inlets = (u.T_h1, u.T_c1, u.mdot_h, u.mdot_c) if n == 4 else (u.T_h1, u.T_c1, u.mdot_h)
    for name, value in zip(("T_h1", "T_c1", "mdot_h", "mdot_c"), inlets):
        if not -math.inf < value < math.inf:
            raise ValueError(f"inlet {name} must be finite, got {value}")


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
    return EkfState(tuple(map(float, x)), cfg.process_noise_density())


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


def _tau_partials(cfg: EkfConfig, x_v: Sequence[float], u: InletConditions, cp: CpParams):
    """dtau/dp over the parameter states p = x_v[2:], as one row of tau
    partials per parameter (the dtau of partial_rows): the columns of
    central_jacobian of parameter_terms(...)[:7]."""
    return list(zip(*central_jacobian(lambda p: parameter_terms(cfg, p, u, cp)[:7], x_v[2:])))


def ekf_evaluation(
    cfg: EkfConfig, x_v: Sequence[float], u: InletConditions, cp: CpParams
) -> ApproxEvaluation:
    """Approximate-model evaluation at the joint state x_v."""
    return evaluate_approx(WallState(float(x_v[0]), float(x_v[1])), u, cp,
                           parameter_terms(cfg, x_v[2:], u, cp))


def central_jacobian(fun, x: Sequence[float]) -> list[tuple[float, ...]]:
    """Central finite differences of fun with per-component steps
    max(JACOBIAN_REL_STEP * |x_i|, JACOBIAN_ABS_STEP), as the rows of J
    (one per output).  fun takes a list of floats and returns a sequence."""
    x = list(map(float, x))
    cols = []
    for i, xi in enumerate(x):
        h = max(JACOBIAN_REL_STEP * abs(xi), JACOBIAN_ABS_STEP)
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        cols.append([(p - m) / (2.0 * h) for p, m in zip(fun(xp), fun(xm))])
    return list(zip(*cols))


def covariance_step(P: Sequence[float], f0: Sequence[float], f1: Sequence[float],
                    q: Sequence[float], h: float) -> tuple[float, ...]:
    """One RK4 step of size h of Pdot = F P + P F' + Q with F held, on
    floats, for 5 states: the polynomial
    P + h (k + h/2 L(k + h/3 L(k + h/4 L(k)))) with L(M) = F M + M F' and
    k = L(P) + Q, which is the four stages in Horner form.

    P is the upper triangle of the symmetric P row by row (15 entries),
    f0 and f1 are F's wall rows, F's parameter rows are zero, and
    Q = diag(q).  So L(M) has a zero parameter block, and its wall rows
    are F's wall rows times M plus, on the wall block, their transpose.
    Each argument of L after the first has the parameter block diag(q[2:]),
    and the parameter block of the result is exactly P's plus h q.  Four
    states pad the third parameter with a zero row and column of P, a
    zero F column and zero noise: the 0.0 products they add leave the
    other entries as they are.  Returns the upper triangle of the result.
    """
    (p00, p01, p02, p03, p04, p11, p12, p13, p14,
     p22, p23, p24, p33, p34, p44) = P
    f00, f01, f02, f03, f04 = f0
    f10, f11, f12, f13, f14 = f1
    q0, q1, q2, q3, q4 = q
    # k = L(P) + Q on the wall rows
    g00 = f00 * p00 + f01 * p01 + f02 * p02 + f03 * p03 + f04 * p04
    g01 = f00 * p01 + f01 * p11 + f02 * p12 + f03 * p13 + f04 * p14
    g10 = f10 * p00 + f11 * p01 + f12 * p02 + f13 * p03 + f14 * p04
    g11 = f10 * p01 + f11 * p11 + f12 * p12 + f13 * p13 + f14 * p14
    k00, k01, k11 = g00 + g00 + q0, g01 + g10, g11 + g11 + q1
    k02 = f00 * p02 + f01 * p12 + f02 * p22 + f03 * p23 + f04 * p24
    k03 = f00 * p03 + f01 * p13 + f02 * p23 + f03 * p33 + f04 * p34
    k04 = f00 * p04 + f01 * p14 + f02 * p24 + f03 * p34 + f04 * p44
    k12 = f10 * p02 + f11 * p12 + f12 * p22 + f13 * p23 + f14 * p24
    k13 = f10 * p03 + f11 * p13 + f12 * p23 + f13 * p33 + f14 * p34
    k14 = f10 * p04 + f11 * p14 + f12 * p24 + f13 * p34 + f14 * p44
    # F's wall rows times the parameter block diag(q[2:]) of the later
    # arguments
    fq02, fq03, fq04 = f02 * q2, f03 * q3, f04 * q4
    fq12, fq13, fq14 = f12 * q2, f13 * q3, f14 * q4
    m00, m01, m11, m02, m03, m04, m12, m13, m14 = k00, k01, k11, k02, k03, k04, k12, k13, k14
    for c in (h / 4.0, h / 3.0, h / 2.0):  # m <- k + c L(m), innermost first
        g00 = f00 * m00 + f01 * m01 + f02 * m02 + f03 * m03 + f04 * m04
        g01 = f00 * m01 + f01 * m11 + f02 * m12 + f03 * m13 + f04 * m14
        g10 = f10 * m00 + f11 * m01 + f12 * m02 + f13 * m03 + f14 * m04
        g11 = f10 * m01 + f11 * m11 + f12 * m12 + f13 * m13 + f14 * m14
        m00, m01, m11, m02, m03, m04, m12, m13, m14 = (
            k00 + c * (g00 + g00), k01 + c * (g01 + g10), k11 + c * (g11 + g11),
            k02 + c * (f00 * m02 + f01 * m12 + fq02),
            k03 + c * (f00 * m03 + f01 * m13 + fq03),
            k04 + c * (f00 * m04 + f01 * m14 + fq04),
            k12 + c * (f10 * m02 + f11 * m12 + fq12),
            k13 + c * (f10 * m03 + f11 * m13 + fq13),
            k14 + c * (f10 * m04 + f11 * m14 + fq14))
    return (p00 + h * m00, p01 + h * m01, p02 + h * m02, p03 + h * m03, p04 + h * m04,
            p11 + h * m11, p12 + h * m12, p13 + h * m13, p14 + h * m14,
            p22 + h * q2, p23, p24, p33 + h * q3, p34, p44 + h * q4)


# covariance_step's order of P's entries, the upper triangle row by row,
# as (rows, columns), and the index in it of each entry of the symmetric P.
_PAIRS = [(i, j) for i in range(5) for j in range(i, 5)]
UPPER = tuple(zip(*_PAIRS))
SYMMETRIC = tuple(tuple(_PAIRS.index((min(i, j), max(i, j))) for j in range(5))
                  for i in range(5))
_NO_TAU = (0.0,) * 7  # the dtau row of a padded parameter


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
    chain rule.  With F held the covariance ODE is linear, and
    covariance_step takes its RK4 step on floats.  Four states pad a third
    parameter with a zero dtau row, a zero row and column of P and zero
    noise, so one kernel serves every variant.  dt is one telemetry sample
    period: the substep count is sized for that, so long horizons must
    loop rather than stretch a single call past the integrator's
    stability region.  An inlet the variant reads that is not finite
    raises a ValueError naming it.
    """
    _check_inputs(cfg, state, u)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    x = state.x_hat
    n = cfg.n_states
    dtau = _tau_partials(cfg, x, u, cp)
    q_x, q_ups = cfg.r_x_density, cfg.r_upsilon_density
    q = (q_x, q_x, q_ups, q_ups, cfg.r_mdot_density if n == 5 else 0.0)
    if n == 4:
        dtau.append(_NO_TAU)
    # P's upper triangle row by row, padded to five states with zeros
    rows = state.P if n == 5 else (*map(add, state.P, repeat((0.0,))), (0.0,) * 5)
    P = (*rows[0], *rows[1][1:], *rows[2][2:], *rows[3][3:], rows[4][4])
    substeps = cfg.wall.substeps_per_sample
    h = dt / substeps
    stage = ApproxStage(u, cp, parameter_terms(cfg, x[2:], u, cp), cfg.wall, dtau)
    w1, w2 = x[0], x[1]
    for _ in range(substeps):
        k1, (f0, f1) = stage.rates_and_rows(w1, w2)
        P = covariance_step(P, f0, f1, q, h)
        w1, w2 = rk4_pair(stage.rates, w1, w2, h, k1)
    p00, p01, p02, p03, p04, p11, p12, p13, p14, p22, p23, p24, p33, p34, p44 = P
    P = ((p00, p01, p02, p03, p04), (p01, p11, p12, p13, p14), (p02, p12, p22, p23, p24),
         (p03, p13, p23, p33, p34), (p04, p14, p24, p34, p44))
    if n == 4:
        P = (P[0][:4], P[1][:4], P[2][:4], P[3][:4])
    return EkfState((w1, w2, *x[2:]), P)


def _times(P: list, v: list) -> list:
    """P v' on floats, P a list of rows."""
    out = []
    for row in P:
        s = 0.0
        for a, b in zip(row, v):
            s += a * b
        out.append(s)
    return out


def _dot(a: list, b: list) -> float:
    """a b' on floats."""
    s = 0.0
    for ai, bi in zip(a, b):
        s += ai * bi
    return s


def ekf_update(
    state: EkfState,
    cfg: EkfConfig,
    u: InletConditions,
    cp: CpParams,
    y_meas: Sequence[float],
    dt: float,
) -> tuple[EkfState, tuple[float, ...], tuple[float, float]]:
    """Measurement update at the current time, on floats.

    ``y_meas`` holds only the measured channels (hot outlet alone for
    variant C).  Returns the posterior state, the innovation, and the
    full predicted output pair (T_h2, T_c2).  An inlet the variant reads
    or a measurement that is not finite raises a ValueError naming it.

    H's rows are partial_rows' outlet rows.  The gain K = P H' S^-1 takes
    the 2x2 S = H P H' + R_disc in closed form; variant C's unmeasured
    cold channel enters as a zero H row with unit variance, which adds
    nothing to the gain.  P - K H P is formed on the upper triangle and
    mirrored, so the posterior P is exactly symmetric.  A zero determinant
    of S or a gain that is not finite raises
    SingularInnovationCovarianceError.
    """
    _check_inputs(cfg, state, u)
    y = tuple(map(float, y_meas))
    if len(y) != len(cfg.measured_rows):
        raise DimensionMismatchError(f"variant {cfg.variant} measures "
                                     f"{len(cfg.measured_rows)} channel(s), got {len(y)}")
    for channel, value in zip(("T_h2", "T_c2"), y):
        if not -math.inf < value < math.inf:
            raise ValueError(f"measured {channel} must be finite, got {value}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")

    x = list(state.x_hat)
    P = list(map(list, state.P))
    n = len(x)
    terms = parameter_terms(cfg, x[2:], u, cp)
    w1, w2 = x[0], x[1]
    ev = evaluate_approx(WallState(w1, w2), u, cp, terms)
    T_h2, T_c2 = ev.outlets.T_h2, ev.outlets.T_c2
    H_h, H_c = partial_rows(
        w1, w2, u.T_h1, u.T_c1, terms[0], terms[1], u.mdot_h * cp.theta3,
        terms[2] * cp.theta4, cp.theta4, ev.beta_hot, ev.beta_cold, T_h2, T_c2,
        _tau_partials(cfg, state.x_hat, u, cp))[:2]
    r_disc = cfg.r_y_density / dt
    # S = [[s_hh, s_hc], [s_hc, s_cc]] from the columns P H'
    col_h = _times(P, H_h)
    s_hh = _dot(H_h, col_h) + r_disc
    if len(y) == 2:
        col_c = _times(P, H_c)
        s_hc, s_cc = _dot(H_h, col_c), _dot(H_c, col_c) + r_disc
        innov = (y[0] - T_h2, y[1] - T_c2)
    else:
        col_c, s_hc, s_cc = [0.0] * n, 0.0, 1.0
        innov = (y[0] - T_h2, 0.0)
    det = s_hh * s_cc - s_hc * s_hc
    if det == 0.0:
        raise SingularInnovationCovarianceError("innovation covariance is singular")
    gain_h, gain_c = [], []
    for i in range(n):
        k_h = (col_h[i] * s_cc - col_c[i] * s_hc) / det
        k_c = (col_c[i] * s_hh - col_h[i] * s_hc) / det
        if not (-math.inf < k_h < math.inf and -math.inf < k_c < math.inf):
            raise SingularInnovationCovarianceError(
                "innovation covariance produced a non-finite gain")
        gain_h.append(k_h)
        gain_c.append(k_c)
        x[i] += k_h * innov[0] + k_c * innov[1]
    # P - K (P H')' on the upper triangle, mirrored
    for i in range(n):
        row, k_h, k_c = P[i], gain_h[i], gain_c[i]
        for j in range(i, n):
            P[j][i] = row[j] = row[j] - (k_h * col_h[j] + k_c * col_c[j])
    x[2] = max(x[2], UPSILON_FLOOR)
    x[3] = max(x[3], UPSILON_FLOOR)
    if n == 5:
        x[4] = max(x[4], MDOT_FLOOR)
    return EkfState(tuple(x), tuple(map(tuple, P))), innov[:len(y)], (T_h2, T_c2)


def estimate_kA(
    cfg: EkfConfig, x_v: Sequence[float], u: InletConditions, cp: CpParams
) -> float:
    """Serial overall rating of the output conductances at x_v."""
    return serial_conductance(*conductances(cfg, x_v[2:], u, cp)[1:3])
