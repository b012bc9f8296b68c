"""The benchmark workloads and the correctness gates they must pass.

Each workload drives hxtwin only through the public functions of the
``simulate -> monitor -> compare`` CLI pipeline.  A *pass* is the timed
unit: one run of the workload's pipeline stages over the whole scenario.
The pipeline functions are imported into this module on purpose: the
traced run rebinds them here to put a span around each call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from hxtwin.harness import (
    compare_report,
    innovation_means,
    load_scenario,
    read_telemetry_csv,
    recovery_time,
    run_monitor,
    run_truth_sim,
    window_errors,
    write_monitor_csv,
    write_telemetry_csv,
)
from hxtwin.means import heat_rate

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TELEMETRY_CSV = "telemetry.csv"

# Side energy-balance residual allowed in the telemetry: the reference
# solver's own ftol.
ENERGY_BALANCE_TOL_W = 1e-6
# Criteria 5 and 7: 300 s windows after 300 s of settling, mean
# innovation over the final 10 minutes.
WINDOW_S = 300.0
SETTLE_S = 300.0
WINDOW_RELERR_MAX = 0.05
INNOVATION_TAIL_S = 600.0
INNOVATION_MEAN_MAX_K = 0.03
# Criterion 8: variant B's flow estimate within 10 % of the stepped flow
# by t = 420 s.
FLOW_STEP_T_S = 120.0
FLOW_STEP_TARGET_KG_S = 20.5
FLOW_REL_TOL = 0.10
FLOW_RECOVERED_BY_S = 420.0
# Samples of the untimed warm-up pass.
WARMUP_SAMPLES = 60


def _tracking_gate(telemetry, monitor) -> list[str]:
    """Criteria 5 and 7 on a tracking run."""
    errs = []
    worst = worst_window(telemetry, monitor)
    if not worst <= WINDOW_RELERR_MAX:
        errs.append(f"worst window kA relerr {worst:.4g} > {WINDOW_RELERR_MAX}")
    means = innovation_means(monitor, telemetry[-1].t_s - INNOVATION_TAIL_S)
    for channel, mean in zip(("hot", "cold"), means):
        if not abs(mean) <= INNOVATION_MEAN_MAX_K:
            errs.append(f"{channel} tail mean innovation {mean:+.4g} K")
    return errs


def _flow_recovery_gate(telemetry, monitor) -> list[str]:
    """Criterion 8 on the flow-estimating variant."""
    t = recovery_time(monitor, FLOW_STEP_T_S, FLOW_STEP_TARGET_KG_S, FLOW_REL_TOL)
    if t is None or t > FLOW_RECOVERED_BY_S:
        return [f"flow estimate within 10 % only at t = {t} s"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    # True: the pass simulates the plant; False: setup makes the telemetry
    # and the pass only monitors it.
    simulate: bool
    variants: tuple[str, ...]
    # set-ups per untraced run, spread over the run; their median is
    # setup_s.  Set-up is process start plus import where the pass
    # simulates (about 0.2 s), so repeat it often; where it makes the
    # telemetry, each one is a whole truth simulation (5-9 s).
    setup_repeats: int
    # run-level gates per monitor variant
    gates: dict = field(default_factory=dict)
    # traced spans that must record calls, or the trace is wrong
    required_calls: tuple[str, ...] = ()


# BENCHMARK.json gates chirp_truth and chirp_monitor only.  coolant_flow
# (5-state filter, flow-dependent correlations, inputs that stay
# constant, so caches and warm starts hit more) is run by hand: on a
# noisy 2-core host a third gated workload leaves too little time per
# run for steady figures.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("chirp_truth", "chirp_tracking.cfg", simulate=True, variants=(),
                 setup_repeats=25, required_calls=("ref_output",)),
        Workload("chirp_monitor", "chirp_tracking.cfg", simulate=False, variants=("A",),
                 setup_repeats=4, gates={"A": _tracking_gate},
                 required_calls=("central_jacobian",)),
        Workload("coolant_flow", "coolant_step.cfg", simulate=True, variants=("B", "C"),
                 setup_repeats=25, gates={"B": _flow_recovery_gate},
                 required_calls=("central_jacobian",)),
    )
}


@dataclass
class Context:
    """What setup leaves for the passes."""

    scn: object
    seed: int
    workdir: Path
    telemetry: list = field(default_factory=list)  # setup telemetry, monitor-only

    @property
    def telemetry_path(self) -> Path:
        return self.workdir / TELEMETRY_CSV

    def monitor_path(self, variant: str) -> Path:
        return self.workdir / f"monitor_{variant}.csv"


@dataclass
class PassResult:
    truth_samples: int = 0
    monitor_samples: int = 0  # samples x variants
    truth_s: float = 0.0
    monitor_s: float = 0.0
    telemetry: list = field(default_factory=list)  # in memory, as simulated
    monitors: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)  # file name -> sha256

    @property
    def samples(self) -> int:
        return self.truth_samples + self.monitor_samples

    @property
    def seconds(self) -> float:
        return self.truth_s + self.monitor_s


def sample_steps(wl: Workload, out: PassResult) -> tuple[int, int]:
    """Truth and monitor sample steps of a pass: every record after each
    stage's first, which only initialises."""
    return (max(out.truth_samples - 1, 0),
            out.monitor_samples - len(wl.variants))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def setup(wl: Workload, seed: int, workdir: Path) -> Context:
    ctx = Context(load_scenario(SCENARIOS / wl.scenario), seed, workdir)
    if not wl.simulate:
        ctx.telemetry = run_truth_sim(ctx.scn, seed=seed)
        write_telemetry_csv(ctx.telemetry, ctx.telemetry_path)
    return ctx


def load_context(wl: Workload, seed: int, workdir: Path) -> Context:
    """The context a set-up left in workdir, without redoing it."""
    ctx = Context(load_scenario(SCENARIOS / wl.scenario), seed, workdir)
    if not wl.simulate:
        ctx.telemetry = read_telemetry_csv(ctx.telemetry_path)
    return ctx


def warm_up(wl: Workload, ctx: Context) -> None:
    """A short untimed pass over the first samples of the scenario."""
    if wl.simulate:
        short = replace(ctx.scn, duration_s=WARMUP_SAMPLES * ctx.scn.dt_s)
        telemetry = run_truth_sim(short, seed=ctx.seed)
    else:
        telemetry = ctx.telemetry[: WARMUP_SAMPLES + 1]
    for variant in wl.variants:
        run_monitor(ctx.scn, telemetry, variant=variant)


def run_pass(wl: Workload, ctx: Context) -> PassResult:
    """One timed run of the workload's pipeline stages."""
    out = PassResult()
    if wl.simulate:
        t0 = perf_counter()
        out.telemetry = run_truth_sim(ctx.scn, seed=ctx.seed)
        write_telemetry_csv(out.telemetry, ctx.telemetry_path)
        out.truth_s = perf_counter() - t0
        out.truth_samples = len(out.telemetry)
    if wl.variants:
        t0 = perf_counter()
        telemetry = read_telemetry_csv(ctx.telemetry_path)
        for variant in wl.variants:
            monitor = run_monitor(ctx.scn, telemetry, variant=variant)
            write_monitor_csv(monitor, ctx.monitor_path(variant))
            compare_report(telemetry, monitor, hot=ctx.scn.hot,
                           window_s=WINDOW_S, settle_s=SETTLE_S)
            out.monitors[variant] = monitor
        out.monitor_s = perf_counter() - t0
        out.monitor_samples = len(telemetry) * len(wl.variants)
        out.telemetry = out.telemetry or telemetry
    paths = [ctx.telemetry_path] + [ctx.monitor_path(v) for v in wl.variants]
    out.digests = {p.name: sha256_file(p) for p in paths}
    return out


def energy_residuals(rec, scn) -> tuple[float, float]:
    """Both side energy-balance residuals of one telemetry record, in W."""
    hf, cf = scn.hot.fluid, scn.cold.fluid
    r_h = rec.mdot_h_kg_s * (
        hf.enthalpy(rec.T_h2_true_K, rec.p_h_Pa) - hf.enthalpy(rec.T_h1_K, rec.p_h_Pa)
    ) + heat_rate(rec.T_h1_K - rec.T_w1_K, rec.T_h2_true_K - rec.T_w2_K, rec.aA_h_W_K)
    r_c = rec.mdot_c_kg_s * (
        cf.enthalpy(rec.T_c2_true_K, rec.p_c_Pa) - cf.enthalpy(rec.T_c1_K, rec.p_c_Pa)
    ) - heat_rate(rec.T_w1_K - rec.T_c2_true_K, rec.T_w2_K - rec.T_c1_K, rec.aA_c_W_K)
    return r_h, r_c


def worst_window(telemetry, monitor) -> float:
    """Worst mean kA relative error over the 300 s windows after settling."""
    return max(window_errors(
        [r.t_s for r in telemetry], [m.kA_hat_W_K for m in monitor],
        [r.kA_W_K for r in telemetry], telemetry[0].t_s + SETTLE_S, WINDOW_S,
    ))


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    worst_window: float = 0.0  # max over the variants run

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.worst_window = max(self.worst_window, other.worst_window)


def check_pass(wl: Workload, ctx: Context, out: PassResult) -> CheckResult:
    """Correctness gates on one pass; failures count stage samples."""
    res = CheckResult(attempted=out.samples)
    if wl.simulate:
        bad = 0
        for rec in out.telemetry:
            r_h, r_c = energy_residuals(rec, ctx.scn)
            if not (abs(r_h) <= ENERGY_BALANCE_TOL_W and abs(r_c) <= ENERGY_BALANCE_TOL_W):
                bad += 1
        if bad:
            res.errors.append(f"{bad} telemetry samples break the energy balance")
        res.failed += bad
    for variant, monitor in out.monitors.items():
        nonfinite = sum(not math.isfinite(m.kA_hat_W_K) for m in monitor)
        if nonfinite:
            res.errors.append(f"variant {variant}: {nonfinite} non-finite kA_hat")
            res.failed += len(monitor)
            continue
        res.worst_window = max(res.worst_window, worst_window(out.telemetry, monitor))
        gate = wl.gates.get(variant)
        errs = gate(out.telemetry, monitor) if gate else []
        if errs:
            res.errors += [f"variant {variant}: {e}" for e in errs]
            res.failed += len(monitor)
    return res
