"""Scenario runs: truth simulation, online monitoring and the model bench.

``run_truth_sim`` integrates the reference model and emits telemetry
with seeded measurement noise; ``run_monitor`` replays that telemetry
through the joint EKF; ``bench_models`` times the two models' output
evaluations.  The scenario schema lives in ``hxtwin.scenario``, the
records and their CSV files in ``hxtwin.records``, and the comparison
metrics in ``hxtwin.metrics``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

# perfbench's tracer rebinds the model calls below as globals of this
# module (tracing.SPANNED), so the loops that make them live here.
from .approx_model import (
    CpParams,
    approx_output,
    approx_steady_selfconsistent,
    approx_steady_terms,
    approx_steady_walls,
    evaluate_approx,
    update_cp_params,
)
from .correlations import serial_conductance
from .ekf import (
    EkfConfig,
    ekf_evaluation,
    ekf_init,
    ekf_predict,
    ekf_update,
    estimate_kA,
    model_inputs,
)
from .fluids import CaloricallyPerfect, StreamConfig
from .records import MonitorRecord, TelemetryRecord
from .reference_model import (
    InletConditions,
    WallState,
    ref_output,
    ref_steady_outlets,
    steady_wall_temps,
)
from .scenario import ScenarioConfig, initial_point, inputs_at, truth_conductances
from .wall_dynamics import integrate_step, reference_wall_rhs

# Re-exported only because perfbench imports these names from here.
from .metrics import compare_report, innovation_means, recovery_time, window_errors
from .records import read_telemetry_csv, write_monitor_csv, write_telemetry_csv
from .scenario import load_scenario

__all__ = [
    "run_truth_sim",
    "run_monitor",
    "BenchResult",
    "bench_models",
]


# ---------------------------------------------------------------------------
# Truth simulation


def run_truth_sim(scn: ScenarioConfig, seed: int | None = None) -> list[TelemetryRecord]:
    """Simulate the plant with the reference model and seeded noise.

    Inputs and conductances are held over each sample interval
    (zero-order hold); the wall integrates with fixed-step RK4.  The
    noise stream draws two values per record in a fixed order, so a
    given seed reproduces the telemetry bit for bit.
    """
    rng = np.random.default_rng(scn.seed if seed is None else seed)
    wall_cfg = scn.plant.wall
    p_h, p_c = scn.hot.pressure, scn.cold.pressure

    u, cond = initial_point(scn)
    if scn.plant.wall_init is not None:
        x = scn.plant.wall_init
    else:
        steady = ref_steady_outlets(u, cond.kA, scn.hot, scn.cold)
        x = steady_wall_temps(steady, u, cond)
    outs = ref_output(x, u, cond, scn.hot, scn.cold)

    records = []

    def emit(t, u, x, outs, cond):
        noise = rng.standard_normal(2)
        records.append(TelemetryRecord(
            t_s=t, T_h1_K=u.T_h1, T_c1_K=u.T_c1,
            mdot_h_kg_s=u.mdot_h, mdot_c_kg_s=u.mdot_c,
            T_h2_true_K=outs.T_h2, T_c2_true_K=outs.T_c2,
            T_h2_meas_K=outs.T_h2 + scn.plant.noise_std_K * noise[0],
            T_c2_meas_K=outs.T_c2 + scn.plant.noise_std_K * noise[1],
            T_w1_K=x.T_w1, T_w2_K=x.T_w2,
            aA_h_W_K=cond.aA_h, aA_c_W_K=cond.aA_c,
            kA_W_K=serial_conductance(cond.aA_h, cond.aA_c),
            p_h_Pa=p_h, p_c_Pa=p_c,
        ))

    emit(0.0, u, x, outs, cond)
    n_steps = round(scn.duration_s / scn.dt_s)
    for k in range(1, n_steps + 1):
        rhs = reference_wall_rhs(u, cond, scn.hot, scn.cold, wall_cfg, outs)
        x = integrate_step(rhs, x, scn.dt_s, wall_cfg.substeps_per_sample)
        t = k * scn.dt_s
        u = inputs_at(scn, t)
        cond = truth_conductances(scn, u, t, outs)
        outs = ref_output(x, u, cond, scn.hot, scn.cold, guess=outs)
        emit(t, u, x, outs, cond)
    return records


# ---------------------------------------------------------------------------
# Monitoring


def _monitor_streams(scn: ScenarioConfig, cp_model: str) -> tuple[StreamConfig, StreamConfig]:
    if cp_model == "constant":
        hot = StreamConfig(
            CaloricallyPerfect(scn.monitoring.cp_constant_hot), scn.hot.pressure
        )
        return hot, scn.cold
    return scn.hot, scn.cold


def _monitor_cp(
    ekf_cfg: EkfConfig,
    hot: StreamConfig,
    cold: StreamConfig,
    x_v: np.ndarray,
    u: InletConditions,
    prev_out,
    prev_steady,
) -> CpParams:
    """Refresh theta3..theta6 and run the steady cp fixed point at the
    model inputs of the joint state x_v.

    The steady rating kA feeding the fixed point tracks theta5/theta6
    through the monitored correlation, so correlations with a cp
    exponent stay self-consistent.
    """
    # the mean cps read only the inlet temperatures, which the effective
    # inlets share with u
    cp = update_cp_params(hot, cold, u, prev_out, prev_steady)

    u_eff = model_inputs(ekf_cfg, x_v, u, cp)[0]

    def kA_of(cp2: CpParams) -> float:
        return model_inputs(ekf_cfg, x_v, u, cp2)[2].kA

    _outlets, cp, _n = approx_steady_selfconsistent(u_eff, hot, cold, kA_of, cp)
    return cp


def run_monitor(
    scn: ScenarioConfig,
    telemetry: list[TelemetryRecord],
    variant: str | None = None,
    cp_model: str | None = None,
) -> list[MonitorRecord]:
    """Replay telemetry through the joint EKF.

    Per record: refresh the mean specific heats from the previous
    post-update outputs, predict under zero-order-hold previous inputs,
    compare the predicted outputs against the measurements at the new
    inputs, update, and log.  Record 0 only initializes.  eps_* columns
    hold the noise-free prediction errors y_true - y_pred, available
    here because the telemetry carries the true outlets.
    """
    if not telemetry:
        raise ValueError("telemetry is empty")
    mon = scn.monitoring
    ekf_cfg = mon.ekf if variant is None else replace(mon.ekf, variant=variant)
    hot, cold = _monitor_streams(scn, cp_model or mon.cp_model)

    rec0 = telemetry[0]
    estimates_flow = ekf_cfg.n_states == 5

    def filter_inlets(u: InletConditions) -> InletConditions:
        # With a distrusted flow meter, variant A runs on the stale
        # nominal value; B and C substitute their estimate anyway.
        if estimates_flow or mon.trust_mdot_c:
            return u
        return replace(u, mdot_c=mon.mdot_c0)

    u_prev = filter_inlets(rec0.inlets())
    # the walls start at the steady state of the initial parameter states
    state = ekf_init(ekf_cfg, WallState(math.nan, math.nan),
                     (mon.upsilon0_h, mon.upsilon0_c),
                     mdot_c0=mon.mdot_c0 if estimates_flow else None)
    cp = _monitor_cp(ekf_cfg, hot, cold, state.x_hat, u_prev, None, None)
    u0_eff, _cond_out, cond0 = model_inputs(ekf_cfg, state.x_hat, u_prev, cp)
    _souts, wall0 = approx_steady_walls(u0_eff, cond0, cp)
    state.x_hat[:2] = wall0.T_w1, wall0.T_w2

    ev = ekf_evaluation(ekf_cfg, state.x_hat, u_prev, cp)
    prev_out, prev_steady = ev.outlets, ev.steady_outlets

    records = []

    def append_record(t_s, u_k, cp, innov_h, innov_c, eps_h, eps_c, flags) -> None:
        x = state.x_hat
        records.append(MonitorRecord(
            t_s=t_s,
            T_w1_hat_K=float(x[0]), T_w2_hat_K=float(x[1]),
            upsilon_h_hat_W_K=float(x[2]), upsilon_c_hat_W_K=float(x[3]),
            mdot_c_hat_kg_s=float(x[4]) if estimates_flow else u_k.mdot_c,
            kA_hat_W_K=estimate_kA(ekf_cfg, x, u_k, cp),
            innov_h_K=innov_h, innov_c_K=innov_c, eps_h_K=eps_h, eps_c_K=eps_c,
            flags=flags,
        ))

    append_record(rec0.t_s, u_prev, cp, math.nan, math.nan, math.nan, math.nan, "init")

    for rec in telemetry[1:]:
        u_k = filter_inlets(rec.inlets())
        dt = rec.t_s - records[-1].t_s
        if dt <= 0.0:
            raise ValueError(f"telemetry times must increase, got dt={dt} at t={rec.t_s}")
        cp = _monitor_cp(ekf_cfg, hot, cold, state.x_hat, u_k, prev_out, prev_steady)
        # ekf_predict sizes its substeps for one sample period, so a gap
        # in the telemetry is crossed in n predictions of dt / n each
        n = max(1, round(dt / scn.dt_s))
        for _ in range(n):
            state = ekf_predict(state, ekf_cfg, u_prev, cp, dt / n)
        # the spans behind theta3/theta4 lag one sample; refresh them from
        # the predicted outputs at the new inputs before comparing against
        # the measurement (still causal, kills the lag at fast excitation)
        ev_pred = ekf_evaluation(ekf_cfg, state.x_hat, u_k, cp)
        cp = _monitor_cp(ekf_cfg, hot, cold, state.x_hat, u_k,
                         ev_pred.outlets, ev_pred.steady_outlets)
        y_full = (rec.T_h2_meas_K, rec.T_c2_meas_K)
        y_meas = np.array([y_full[i] for i in ekf_cfg.measured_rows])
        state, innov, y_pred = ekf_update(state, ekf_cfg, u_k, cp, y_meas, dt)

        ev = ekf_evaluation(ekf_cfg, state.x_hat, u_k, cp)
        prev_out, prev_steady = ev.outlets, ev.steady_outlets
        tokens = []
        if ev.beta_hot.feasible_set_empty:
            tokens.append("beta_empty_hot")
        if ev.beta_cold.feasible_set_empty:
            tokens.append("beta_empty_cold")
        innov_c = innov[1] if len(innov) > 1 else math.nan
        append_record(
            rec.t_s, u_k, cp, float(innov[0]), float(innov_c),
            rec.T_h2_true_K - float(y_pred[0]), rec.T_c2_true_K - float(y_pred[1]),
            "|".join(tokens) if tokens else "ok",
        )
        u_prev = u_k
    return records


# ---------------------------------------------------------------------------
# Benchmarking


@dataclass(frozen=True)
class BenchResult:
    n_evals: int
    ref_s_per_eval: float
    approx_s_per_eval: float
    speedup: float
    low_confidence: bool

    def as_table(self) -> str:
        rows = [
            ("model", "evals", "s/eval", "evals/s"),
            ("reference", str(self.n_evals), f"{self.ref_s_per_eval:.3e}",
             f"{1.0 / self.ref_s_per_eval:.3e}"),
            ("approximate", str(self.n_evals), f"{self.approx_s_per_eval:.3e}",
             f"{1.0 / self.approx_s_per_eval:.3e}"),
        ]
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                 for r in rows]
        lines.append(f"speedup (reference / approximate): {self.speedup:.1f}x")
        if self.low_confidence:
            lines.append("warning: low eval count, timing confidence is poor")
        return "\n".join(lines) + "\n"


def bench_models(
    scn: ScenarioConfig,
    n_evals: int,
) -> BenchResult:
    """Time transient output evaluations of both models.

    Uses the scenario's base operating point with the wall displaced
    from steady state, cycling small deterministic input perturbations
    so neither path can exploit repeated identical calls.  The timed
    approximate unit is the closed-form approx_output call with its beta
    selections precomputed per input variant.  The monitor loop does not
    make this call: it selects beta in every evaluate_approx call, so its
    speedup over ref_output is smaller (``perfbench/run.py --trace 1``
    reports it as approx_model.in_loop_speedup).
    """
    if n_evals < 1:
        raise ValueError("n_evals must be at least 1")
    u0, cond = initial_point(scn)
    steady = ref_steady_outlets(u0, cond.kA, scn.hot, scn.cold)
    xs = steady_wall_temps(steady, u0, cond)
    x = WallState(xs.T_w1 + 2.0, xs.T_w2 - 2.0)
    cp = update_cp_params(scn.hot, scn.cold, u0, steady, steady)

    variants = [
        replace(u0, T_h1=u0.T_h1 + 0.03 * (k % 7), T_c1=u0.T_c1 - 0.02 * (k % 5))
        for k in range(32)
    ]
    betas = []
    for u in variants:
        ev = evaluate_approx(x, u, cond, cp, approx_steady_terms(u, cond, cp))
        betas.append((ev.beta_hot, ev.beta_cold))

    t0 = time.perf_counter()
    for k in range(n_evals):
        ref_output(x, variants[k % 32], cond, scn.hot, scn.cold)
    t_ref = time.perf_counter() - t0

    t0 = time.perf_counter()
    for k in range(n_evals):
        i = k % 32
        approx_output(x, variants[i], cond, cp, *betas[i])
    t_approx = time.perf_counter() - t0

    ref_per = t_ref / n_evals
    approx_per = t_approx / n_evals
    return BenchResult(
        n_evals=n_evals,
        ref_s_per_eval=ref_per,
        approx_s_per_eval=approx_per,
        speedup=ref_per / approx_per if approx_per > 0.0 else math.inf,
        low_confidence=n_evals < 100,
    )
