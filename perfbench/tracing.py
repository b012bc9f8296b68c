"""Traced run: per-layer counts and times without touching hxtwin itself.

``Tracer`` rebinds public hxtwin names in the modules that call them,
and the pipeline calls in the benchmark's own ``workloads`` module.
Calls made at per-sample scale get a span (name, start, end, parent
span, sample index).  Fluid enthalpy and mean specific heat run millions
of times per pass, so they only bump counters keyed by the innermost
open span.  An evenly spaced sample of the arguments of the
microsecond-scale calls, spanning the whole traced pass, is kept so that
their cost per call can be timed afterwards by replaying them untraced:
a span around a 1 us call would mostly measure the tracer.  Everything
stays in memory until ``write_spans``.
"""

from __future__ import annotations

import csv
import importlib
import statistics
import time
from array import array
from collections import Counter

import numpy as np

from hxtwin.approx_model import BetaBranch
from hxtwin.fluids import CaloricallyPerfect, FluidModel, Tabulated, ThermallyPerfect


class TracingError(RuntimeError):
    """A traced name is missing, or a layer that must run recorded no calls."""


# Name -> modules whose global of that name the tracer wraps in a span.
SPANNED = {
    "ref_output": ("hxtwin.harness", "hxtwin.wall_dynamics"),
    "ref_steady_outlets": ("hxtwin.harness", "hxtwin.wall_dynamics"),
    "evaluate_approx": ("hxtwin.ekf",),
    "central_jacobian": ("hxtwin.ekf",),
    "ekf_predict": ("hxtwin.harness",),
    "ekf_update": ("hxtwin.harness",),
    "ekf_evaluation": ("hxtwin.harness",),
    "update_cp_params": ("hxtwin.harness",),
    "approx_steady_selfconsistent": ("hxtwin.harness",),
    "integrate_step": ("hxtwin.harness",),
    "reference_wall_rhs": ("hxtwin.harness",),
    "run_truth_sim": ("workloads",),
    "run_monitor": ("workloads",),
    "write_telemetry_csv": ("workloads",),
    "read_telemetry_csv": ("workloads",),
    "write_monitor_csv": ("workloads",),
    "compare_report": ("workloads",),
}
# Method name -> fluid classes whose own method of that name is counted.
COUNTED = {
    "enthalpy": (CaloricallyPerfect, ThermallyPerfect, Tabulated),
    "mean_specific_heat": (FluidModel, CaloricallyPerfect),
}
# Spans that open a new telemetry sample: one RK4 step of the truth
# simulation, one prediction of the monitor.
SAMPLE_MARKERS = ("integrate_step", "ekf_predict")
# Calls whose arguments are kept for an untraced replay: those of every
# n-th call, at most REPLAY_CAP of them.  n starts at 1 and doubles each
# time the cap is reached, when every other kept call is dropped.
REPLAYED = ("enthalpy", "ref_output", "ref_steady_outlets", "evaluate_approx")
REPLAY_CAP = 4000
REPLAY_REPEATS = 5

# Per-layer metric (named after its layer, this repo's module) -> the
# end-to-end metric it should move and the workloads where it should.
# A workload that skips the layer is where the prediction is "no change".
RATE = "samples_per_s"
TRUTH = "chirp_truth coolant_flow"  # the workloads that simulate
MONITOR = "chirp_monitor coolant_flow"  # the workloads that monitor
LAYERS = {
    "fluids.enthalpy.calls_per_sample": (RATE, "chirp_truth"),
    "fluids.enthalpy.us_per_call": (RATE, "chirp_truth"),
    "fluids.mean_specific_heat.calls_per_sample": (RATE, "chirp_truth"),
    "reference_model.ref_output.calls_per_sample": (RATE, TRUTH),
    "reference_model.ref_output.us_per_call": (RATE, TRUTH),
    "reference_model.residual_evals_per_solve": (RATE, TRUTH),
    "reference_model.ref_steady_outlets.us_per_call": (RATE, TRUTH),
    "reference_model.share_of_truth": ("samples_per_s; setup_s on chirp_monitor", TRUTH),
    "wall_dynamics.integrate_step.self_us_per_call": (RATE, "chirp_truth"),
    "approx_model.evaluate_approx.calls_per_sample": (RATE, MONITOR),
    "approx_model.evaluate_approx.us_per_call": (RATE, MONITOR),
    "approx_model.approx_steady_selfconsistent.iters_per_call": (RATE, MONITOR),
    "approx_model.beta_zero_share": (RATE, MONITOR),
    "approx_model.beta_empty_share": (RATE, MONITOR),
    "approx_model.in_loop_speedup": (RATE, MONITOR),
    "approx_model.criterion9_speedup": ("none: the call the loops do not make", "all"),
    "ekf.ekf_predict.us_per_call": (RATE, MONITOR),
    "ekf.ekf_update.us_per_call": (RATE, MONITOR),
    "ekf.central_jacobian.calls_per_sample": (RATE, MONITOR),
    "ekf.central_jacobian.share_of_predict": (RATE, MONITOR),
    "ekf.jacobian_eval_share": (RATE, MONITOR),
    "ekf.ekf_evaluation.calls_from_harness_per_sample": (RATE, MONITOR),
    "ekf.kA_relerr_worst_window": ("none: an accuracy guard", MONITOR),
    "harness.run_monitor.sample_ms_p50": (RATE, MONITOR),
    "harness.run_monitor.sample_ms_p99": (RATE, MONITOR),
    "harness.run_monitor.latency_samples": ("none: the n behind p50/p99", MONITOR),
    "harness.run_monitor.self_share": (RATE, MONITOR),
    "harness.run_truth_sim.self_share": (RATE, TRUTH),
    "harness.csv.write_us_per_record": (RATE, "all"),
    "harness.csv.read_us_per_record": (RATE, MONITOR),
    "harness.tracing_overhead": ("none: cost of this traced run", "all"),
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 for a layer the workload never reaches."""
    return num / den if den else 0.0


class Tracer:
    """Installs the wrappers while active (use as a context manager)."""

    def __init__(self):
        self.names = list(SPANNED)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.sample = array("q")
        self._stack: list[int] = []
        self._sample = -1
        # counted method -> calls per innermost span name id (+1; 0 = none)
        self.calls_under = {m: [0] * (len(self.names) + 1) for m in COUNTED}
        self.records_written = 0
        self.records_read = 0
        self.steady_iterations = 0
        self.beta = Counter()
        self.replay = {n: [] for n in REPLAYED}
        self._stride = {}
        self._saved = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        targets = []
        for name, modules in SPANNED.items():
            for mod_name in modules:
                module = importlib.import_module(mod_name)
                fn = getattr(module, name, None)
                if not callable(fn):
                    raise TracingError(f"cannot trace {mod_name}.{name}: it is missing")
                targets.append((module, name, fn))
        for name, classes in COUNTED.items():
            for cls in classes:
                fn = cls.__dict__.get(name)
                if not callable(fn):
                    raise TracingError(
                        f"cannot trace {cls.__module__}.{cls.__qualname__}.{name}: "
                        "it is missing"
                    )
                targets.append((cls, name, fn))
        for owner, name, fn in targets:
            wrap = self._counted if name in COUNTED else self._spanned
            setattr(owner, name, wrap(name, fn))
        self._saved = targets
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved = []

    def _keep_every_nth(self, name: str, fn):
        """keep(args, kwargs) storing the arguments of every n-th call of
        name, counted across all the wrappers of that name, so that the
        kept calls are evenly spaced over all the calls made so far."""
        if name not in REPLAYED:
            return None
        kept = self.replay[name]
        state = self._stride.setdefault(name, [1, 1])  # [countdown, n]

        def keep(args, kwargs):
            state[0] -= 1
            if state[0] == 0:
                if len(kept) == REPLAY_CAP:
                    del kept[1::2]
                    state[1] *= 2
                state[0] = state[1]
                kept.append((fn, args, kwargs))

        return keep

    def _spanned(self, name: str, fn):
        nid = self._ids[name]
        names, starts, ends = self.name, self.start, self.end
        parents, samples, stack = self.parent, self.sample, self._stack
        marker = name in SAMPLE_MARKERS
        keep = self._keep_every_nth(name, fn)
        after = {
            "evaluate_approx": self._after_evaluate_approx,
            "approx_steady_selfconsistent": self._after_steady,
            "write_telemetry_csv": self._after_write,
            "write_monitor_csv": self._after_write,
            "read_telemetry_csv": self._after_read,
        }.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if marker:
                self._sample += 1
            if keep is not None:
                keep(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            samples.append(self._sample)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        per_parent = self.calls_under[name]
        names, stack = self.name, self._stack
        keep = self._keep_every_nth(name, fn)

        def wrapper(fluid, *args):
            per_parent[names[stack[-1]] + 1 if stack else 0] += 1
            if keep is not None:
                keep((fluid, *args), {})
            return fn(fluid, *args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_evaluate_approx(self, args, ev) -> None:
        for sel in (ev.beta_hot, ev.beta_cold):
            self.beta["selections"] += 1
            self.beta["zero"] += sel.branch is BetaBranch.ZERO
            self.beta["empty"] += sel.feasible_set_empty

    def _after_steady(self, args, result) -> None:
        self.steady_iterations += result[2]

    def _after_write(self, args, result) -> None:
        self.records_written += len(args[0])

    def _after_read(self, args, result) -> None:
        self.records_read += len(result)

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        if name in COUNTED:
            return sum(self.calls_under[name])
        return self.name.count(self._ids[name])

    def require_calls(self, names) -> None:
        """Fail loudly when a layer the workload must reach recorded nothing."""
        for name in names:
            if self.calls(name) == 0:
                raise TracingError(
                    f"traced run recorded no {name} calls; a rebinding no "
                    "longer reaches the code that the workload runs"
                )

    def replay_us_per_call(self, name: str) -> float:
        """Median time per call of the kept arguments, replayed untraced."""
        kept = self.replay[name]
        if not kept:
            return 0.0
        if self._saved:
            raise TracingError("replay while the tracer is installed")
        times = []
        for _ in range(REPLAY_REPEATS):
            t0 = time.perf_counter()
            for fn, args, kwargs in kept:
                fn(*args, **kwargs)
            times.append(time.perf_counter() - t0)
        return 1e6 * statistics.median(times) / len(kept)

    def write_spans(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start_s", "end_s", "parent", "sample"))
            for i in range(len(self.start)):
                writer.writerow((
                    i, self.names[self.name[i]], "%.9f" % (self.start[i] - t0),
                    "%.9f" % (self.end[i] - t0), self.parent[i], self.sample[i],
                ))


class SpanStats:
    """Aggregates over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self._ids = tracer._ids
        self.name = np.frombuffer(tracer.name, dtype=np.uint16)
        self.start = np.frombuffer(tracer.start, dtype=np.float64)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64)
        self.dur = np.frombuffer(tracer.end, dtype=np.float64) - self.start
        nested = self.parent >= 0
        child = np.bincount(self.parent[nested], weights=self.dur[nested],
                            minlength=self.dur.size)
        self.self_time = self.dur - child
        self.parent_name = np.where(nested, self.name[np.maximum(self.parent, 0)], -1)

    def mask(self, name: str, under: str | None = None) -> np.ndarray:
        m = self.name == self._ids[name]
        if under is not None:
            m &= self.parent_name == self._ids[under]
        return m

    def count(self, name: str, under: str | None = None) -> int:
        return int(self.mask(name, under).sum())

    def total_s(self, name: str, under: str | None = None) -> float:
        return float(self.dur[self.mask(name, under)].sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def sample_latencies_ms(self) -> np.ndarray:
        """Time from one prediction to the next within each monitor run."""
        m = self.mask("ekf_predict")
        starts, parents = self.start[m], self.parent[m]
        same_run = parents[1:] == parents[:-1]
        return 1e3 * np.diff(starts)[same_run]


def layer_metrics(
    tracer: Tracer,
    truth_steps: int,
    monitor_steps: int,
    ref_output_us: float,
    criterion9_speedup: float,
    worst_window: float,
    tracing_overhead: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    A *sample* in ``calls_per_sample`` is one sample step of a pipeline
    stage: one RK4 step of the truth simulation, or one predict and
    update of a monitor variant.

    ``ref_output_us`` may come from another traced phase of the same
    process (the chirp_monitor set-up simulates chirp telemetry), so the
    in-loop speed-up compares the calls the two loops really make.
    """
    st = SpanStats(tracer)
    steps = truth_steps + monitor_steps
    n_ref = st.count("ref_output")
    n_eval = st.count("evaluate_approx")
    n_steady_sc = st.count("approx_steady_selfconsistent")
    ref_enthalpy = tracer.calls_under["enthalpy"][tracer._ids["ref_output"] + 1]
    truth_s = st.total_s("run_truth_sim")
    monitor_s = st.total_s("run_monitor")
    evaluate_us = tracer.replay_us_per_call("evaluate_approx")
    latencies = st.sample_latencies_ms()
    has_latency = latencies.size > 0
    write_s = st.total_s("write_telemetry_csv") + st.total_s("write_monitor_csv")
    return {
        "fluids.enthalpy.calls_per_sample": _ratio(tracer.calls("enthalpy"), steps),
        "fluids.enthalpy.us_per_call": tracer.replay_us_per_call("enthalpy"),
        "fluids.mean_specific_heat.calls_per_sample":
            _ratio(tracer.calls("mean_specific_heat"), steps),
        "reference_model.ref_output.calls_per_sample": _ratio(n_ref, truth_steps),
        "reference_model.ref_output.us_per_call": tracer.replay_us_per_call("ref_output"),
        # each ref_output solves two sides after one inlet enthalpy each
        "reference_model.residual_evals_per_solve":
            _ratio(ref_enthalpy - 2 * n_ref, 2 * n_ref),
        "reference_model.ref_steady_outlets.us_per_call":
            tracer.replay_us_per_call("ref_steady_outlets"),
        "reference_model.share_of_truth": _ratio(
            st.total_s("ref_output") + st.total_s("ref_steady_outlets"), truth_s),
        "wall_dynamics.integrate_step.self_us_per_call":
            1e6 * _ratio(st.self_s("integrate_step"), st.count("integrate_step")),
        "approx_model.evaluate_approx.calls_per_sample": _ratio(n_eval, monitor_steps),
        "approx_model.evaluate_approx.us_per_call": evaluate_us,
        "approx_model.approx_steady_selfconsistent.iters_per_call":
            _ratio(tracer.steady_iterations, n_steady_sc),
        "approx_model.beta_zero_share":
            _ratio(tracer.beta["zero"], tracer.beta["selections"]),
        "approx_model.beta_empty_share":
            _ratio(tracer.beta["empty"], tracer.beta["selections"]),
        "approx_model.in_loop_speedup": _ratio(ref_output_us, evaluate_us),
        "approx_model.criterion9_speedup": criterion9_speedup,
        "ekf.ekf_predict.us_per_call":
            1e6 * _ratio(st.total_s("ekf_predict"), st.count("ekf_predict")),
        "ekf.ekf_update.us_per_call":
            1e6 * _ratio(st.total_s("ekf_update"), st.count("ekf_update")),
        "ekf.central_jacobian.calls_per_sample":
            _ratio(st.count("central_jacobian"), monitor_steps),
        "ekf.central_jacobian.share_of_predict": _ratio(
            st.total_s("central_jacobian", under="ekf_predict"), st.total_s("ekf_predict")),
        "ekf.jacobian_eval_share":
            _ratio(st.count("evaluate_approx", under="central_jacobian"), n_eval),
        "ekf.ekf_evaluation.calls_from_harness_per_sample":
            _ratio(st.count("ekf_evaluation"), monitor_steps),
        "ekf.kA_relerr_worst_window": worst_window,
        "harness.run_monitor.sample_ms_p50":
            float(np.percentile(latencies, 50)) if has_latency else 0.0,
        "harness.run_monitor.sample_ms_p99":
            float(np.percentile(latencies, 99)) if has_latency else 0.0,
        "harness.run_monitor.latency_samples": float(latencies.size),
        "harness.run_monitor.self_share": _ratio(st.self_s("run_monitor"), monitor_s),
        "harness.run_truth_sim.self_share": _ratio(st.self_s("run_truth_sim"), truth_s),
        "harness.csv.write_us_per_record": 1e6 * _ratio(write_s, tracer.records_written),
        "harness.csv.read_us_per_record":
            1e6 * _ratio(st.total_s("read_telemetry_csv"), tracer.records_read),
        "harness.tracing_overhead": tracing_overhead,
    }
