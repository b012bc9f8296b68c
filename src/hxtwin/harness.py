"""Scenario runs: truth simulation, online monitoring and the model bench.

``run_truth_sim`` integrates the reference model and emits telemetry
with seeded measurement noise.  ``Monitor`` is the live joint EKF, one
``step`` per record; ``run_monitor`` is its replay of a telemetry list.
``bench_models`` times the two models' output evaluations.  The schema
is in ``hxtwin.scenario``, the records and their CSV files in
``hxtwin.records``, and the comparison metrics in ``hxtwin.metrics``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import repeat

# perfbench's tracer rebinds the model calls below as globals of this
# module (tracing.SPANNED), so the loops that make them live here.
from .approx_model import (
    CpParams,
    approx_output,
    approx_steady_selfconsistent,
    evaluate_approx,
    steady_terms,
    update_cp_params,
)
from .correlations import serial_conductance
from .ekf import (
    EkfConfig,
    conductances,
    ekf_evaluation,
    ekf_init,
    ekf_predict,
    ekf_update,
    estimate_kA,
    parameter_terms,
)
from .fluids import CaloricallyPerfect, StreamConfig
from .noise import standard_normals
from .records import MonitorRecord, TelemetryRecord
from .reference_model import (
    InletConditions,
    WallState,
    ref_output,
    ref_steady_outlets,
    steady_wall_temps,
)
from .scenario import (
    ScenarioConfig,
    initial_point,
    inputs_at,
    temperature_rule,
    truth_conductances,
)
from .wall_dynamics import integrate_step, reference_wall_rhs

# Re-exported only because perfbench imports these names from here.
from .metrics import compare_report, innovation_means, recovery_time, window_errors
from .records import read_telemetry_csv, write_monitor_csv, write_telemetry_csv
from .scenario import load_scenario

__all__ = [
    "run_truth_sim",
    "Monitor",
    "run_monitor",
    "BenchResult",
    "bench_models",
]


# ---------------------------------------------------------------------------
# Truth simulation


def run_truth_sim(scn: ScenarioConfig, seed: int | None = None) -> list[TelemetryRecord]:
    """Simulate the plant with the reference model and seeded noise.

    Inputs and conductances are held over each sample interval
    (zero-order hold); the wall integrates with fixed-step RK4.  Record k
    takes normals 2k and 2k + 1 of noise.standard_normals, the stream of
    ``numpy.random.default_rng(seed).standard_normal`` reproduced bit for
    bit in plain Python: so a given seed gives the same telemetry with
    or without numpy installed, whatever numpy's version, and a
    simulation does not pay numpy's import time and memory.  A seed that
    is negative or not an int raises a ValueError naming it.
    """
    n_steps = round(scn.duration_s / scn.dt_s)
    draws = iter(standard_normals(scn.seed if seed is None else seed, 2 * (n_steps + 1)))
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
        records.append(TelemetryRecord(
            t_s=t, T_h1_K=u.T_h1, T_c1_K=u.T_c1,
            mdot_h_kg_s=u.mdot_h, mdot_c_kg_s=u.mdot_c,
            T_h2_true_K=outs.T_h2, T_c2_true_K=outs.T_c2,
            T_h2_meas_K=outs.T_h2 + scn.plant.noise_std_K * next(draws),
            T_c2_meas_K=outs.T_c2 + scn.plant.noise_std_K * next(draws),
            T_w1_K=x.T_w1, T_w2_K=x.T_w2,
            aA_h_W_K=cond.aA_h, aA_c_W_K=cond.aA_c,
            kA_W_K=serial_conductance(cond.aA_h, cond.aA_c),
            p_h_Pa=p_h, p_c_Pa=p_c,
        ))

    emit(0.0, u, x, outs, cond)
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


def _monitor_cp(
    ekf_cfg: EkfConfig,
    hot: StreamConfig,
    cold: StreamConfig,
    x_v: tuple[float, ...],
    u: InletConditions,
    prev_out,
    prev_steady,
) -> CpParams:
    """Refresh theta3..theta6 and run the steady cp fixed point at the
    parameter states x_v[2:], with the cold flow and steady conductances
    of ekf.conductances.

    The steady rating kA feeding the fixed point tracks theta5/theta6
    through the monitored correlation, so correlations with a cp
    exponent stay self-consistent.
    """
    cp = update_cp_params(hot, cold, u, prev_out, prev_steady)
    p = x_v[2:]

    def kA_of(cp2: CpParams) -> float:
        return serial_conductance(*conductances(ekf_cfg, p, u, cp2)[3:])

    u_eff = InletConditions(u.T_h1, u.T_c1, u.mdot_h, conductances(ekf_cfg, p, u, cp)[0])
    _outlets, cp, _n = approx_steady_selfconsistent(u_eff, hot, cold, kA_of, cp)
    return cp


class Monitor:
    """The joint EKF online, one telemetry record per ``step``.

    The first record only initializes; its log is ``init``.  Per later
    record: refresh the mean specific heats from the previous post-update
    outputs, predict under zero-order-hold previous inputs, compare the
    predicted outputs against the measurements at the new inputs, update,
    and log.  eps_* columns hold the noise-free prediction errors y_true -
    y_pred, available here because the telemetry carries the true outlets.
    A reading the variant takes that is not finite, a flow it takes that
    is not positive, an inlet temperature that the scenario's
    temperature_rule rejects for the monitor's streams, or a hot inlet
    at or below the cold one raises a ValueError naming its column and
    time.
    """

    def __init__(
        self,
        scn: ScenarioConfig,
        first_record: TelemetryRecord,
        variant: str | None = None,
        cp_model: str | None = None,
    ):
        mon = scn.monitoring
        self._cfg = cfg = mon.ekf if variant is None else replace(mon.ekf, variant=variant)
        self._scn, self._hot = scn, scn.hot
        if (cp_model or mon.cp_model) == "constant":
            self._hot = StreamConfig(CaloricallyPerfect(mon.cp_constant_hot), scn.hot.pressure)
        estimates_flow = cfg.n_states == 5
        # the readings the filter takes, the measured outlets after the
        # first record: a bad one would surface as a misleading model error
        trusted = not estimates_flow and mon.trust_mdot_c
        self._inlets = ("T_h1_K", "T_c1_K", "mdot_h_kg_s", "mdot_c_kg_s")[:4 if trusted else 3]
        self._measured = tuple(("T_h2_meas_K", "T_c2_meas_K")[i] for i in cfg.measured_rows)
        # the fault of each inlet reading past finiteness, None if valid
        def positive(v: float) -> str | None:
            return None if v > 0.0 else "must be positive"

        hot, cold = ("hot", self._hot), ("cold", scn.cold)
        self._faults = {"T_h1_K": temperature_rule(hot, cold)[1],
                        "T_c1_K": temperature_rule(cold, hot)[1],
                        "mdot_h_kg_s": positive, "mdot_c_kg_s": positive}
        # With a distrusted flow meter, variant A runs on the stale
        # nominal value; B and C substitute their estimate anyway.
        self._stale_mdot_c = None if estimates_flow or trusted else mon.mdot_c0

        # the first clock reading has no dt that would catch it
        u = self._inputs(first_record, ("t_s",) + self._inlets)
        state = ekf_init(cfg, WallState(math.nan, math.nan), (mon.upsilon0_h, mon.upsilon0_c),
                         mdot_c0=mon.mdot_c0 if estimates_flow else None)
        p = state.x_hat[2:]
        cp = _monitor_cp(cfg, self._hot, scn.cold, state.x_hat, u, None, None)
        self._state = replace(state, x_hat=(*parameter_terms(cfg, p, u, cp)[5:7], *p))
        self.init = self._log(first_record.t_s, u, cp, first=True)

    def _inputs(self, rec: TelemetryRecord, names: tuple[str, ...]) -> InletConditions:
        """The filter's inlets at rec, once the readings in names are valid."""
        for name in names:
            value = getattr(rec, name)
            if not math.isfinite(value):
                fault = "must be finite"
            elif name in self._faults:
                fault = self._faults[name](value)
            else:
                continue
            if fault:
                raise ValueError(f"telemetry reading {name} {fault}, got {value} at t={rec.t_s}")
        if not rec.T_h1_K > rec.T_c1_K:
            raise ValueError(f"telemetry reading T_h1_K must exceed T_c1_K = {rec.T_c1_K}, "
                             f"got {rec.T_h1_K} at t={rec.t_s}")
        mdot_c = rec.mdot_c_kg_s if self._stale_mdot_c is None else self._stale_mdot_c
        return InletConditions(rec.T_h1_K, rec.T_c1_K, rec.mdot_h_kg_s, mdot_c)

    def step(self, rec: TelemetryRecord) -> MonitorRecord:
        """Take the next telemetry record through one filter cycle."""
        cfg, scn, hot = self._cfg, self._scn, self._hot
        u_k = self._inputs(rec, self._inlets + self._measured)
        dt = rec.t_s - self._t_s
        # NaN fails this too; the bound caps the predictions made below
        if not 0.0 < dt <= scn.duration_s:
            raise ValueError(f"telemetry times must increase by at most duration_s = "
                             f"{scn.duration_s} s, got dt={dt} at t={rec.t_s}")
        state = self._state
        cp = _monitor_cp(cfg, hot, scn.cold, state.x_hat, u_k, *self._prev_outlets)
        # ekf_predict sizes its substeps for one sample period, so a gap
        # in the telemetry is crossed in n predictions of dt / n each
        n = max(1, round(dt / scn.dt_s))
        for _ in range(n):
            state = ekf_predict(state, cfg, self._u_prev, cp, dt / n)
        # the spans behind theta3/theta4 lag one sample; refresh them from
        # the predicted outputs at the new inputs before comparing against
        # the measurement (still causal, kills the lag at fast excitation)
        ev_pred = ekf_evaluation(cfg, state.x_hat, u_k, cp)
        cp = _monitor_cp(cfg, hot, scn.cold, state.x_hat, u_k,
                         ev_pred.outlets, ev_pred.steady_outlets)
        y_meas = tuple(map(getattr, repeat(rec), self._measured))
        self._state, innov, (T_h2, T_c2) = ekf_update(state, cfg, u_k, cp, y_meas, dt)
        # variant C measures no cold outlet, so it logs no cold innovation
        return self._log(rec.t_s, u_k, cp, (*innov, math.nan)[:2],
                         (rec.T_h2_true_K - T_h2, rec.T_c2_true_K - T_c2))

    def _log(self, t_s: float, u: InletConditions, cp: CpParams, innov=(math.nan, math.nan),
             eps=(math.nan, math.nan), first: bool = False) -> MonitorRecord:
        """Evaluate the outputs at the estimate, keep the time, inputs and
        outputs that the next step starts from, and log the estimate."""
        cfg, x = self._cfg, self._state.x_hat
        ev = ekf_evaluation(cfg, x, u, cp)
        self._t_s, self._u_prev = t_s, u
        self._prev_outlets = ev.outlets, ev.steady_outlets
        empty = [f"beta_empty_{side}" for side, beta in
                 (("hot", ev.beta_hot), ("cold", ev.beta_cold)) if beta.feasible_set_empty]
        return MonitorRecord(
            t_s=t_s,
            T_w1_hat_K=x[0], T_w2_hat_K=x[1], upsilon_h_hat_W_K=x[2], upsilon_c_hat_W_K=x[3],
            mdot_c_hat_kg_s=x[4] if cfg.n_states == 5 else u.mdot_c,
            kA_hat_W_K=estimate_kA(cfg, x, u, cp),
            innov_h_K=innov[0], innov_c_K=innov[1], eps_h_K=eps[0], eps_c_K=eps[1],
            flags="init" if first else "|".join(empty) or "ok",
        )


def run_monitor(
    scn: ScenarioConfig,
    telemetry: list[TelemetryRecord],
    variant: str | None = None,
    cp_model: str | None = None,
) -> list[MonitorRecord]:
    """Replay telemetry through a ``Monitor``, one ``step`` per later record."""
    if not telemetry:
        raise ValueError("telemetry is empty")
    monitor = Monitor(scn, telemetry[0], variant, cp_model)
    return [monitor.init, *map(monitor.step, telemetry[1:])]


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
    make this call: each RK4 stage of a predict is one
    wall_dynamics.ApproxStage call, which also selects beta and gives the
    wall rates, so its speedup over ref_output is smaller.
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
        terms = (cond.aA_h, cond.aA_c, u.mdot_c, *steady_terms(
            u.T_h1, u.T_c1, u.mdot_h * cp.theta5, u.mdot_c * cp.theta6, cond.aA_h, cond.aA_c))
        ev = evaluate_approx(x, u, cp, terms)
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
