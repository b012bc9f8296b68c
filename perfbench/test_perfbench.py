"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The traced-count tests run whole workload passes (about two minutes).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hxtwin.ekf  # noqa: E402
import hxtwin.harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_SUFFIXES = ("calls_per_sample", "residual_evals_per_solve", "iters_per_call")
SEED = 3


def _traced_run(name: str, workdir: Path):
    wl = workloads.WORKLOADS[name]
    workdir.mkdir()
    ctx = workloads.setup(wl, SEED, workdir)
    with tracing.Tracer() as tracer:
        out = workloads.run_pass(wl, ctx)
    tracer.require_calls(wl.required_calls)
    metrics = tracing.layer_metrics(
        tracer, *workloads.sample_steps(wl, out),
        ref_output_us=0.0, criterion9_speedup=0.0, worst_window=0.0,
        tracing_overhead=0.0,
    )
    counts = {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
    return counts, out.digests


@pytest.mark.parametrize("name, expected", [
    # the harness's own output solve adds one ref_output to the 40 RK4 stages
    ("chirp_truth", {"reference_model.ref_output.calls_per_sample": 41}),
    ("chirp_monitor", {"approx_model.evaluate_approx.calls_per_sample": 131,
                       "ekf.central_jacobian.calls_per_sample": 11}),
    ("coolant_flow", {"approx_model.evaluate_approx.calls_per_sample": 153,
                      "ekf.central_jacobian.calls_per_sample": 11,
                      "reference_model.ref_output.calls_per_sample": 41}),
])
def test_traced_counts_repeat_exactly(name, expected, tmp_path):
    first, digests1 = _traced_run(name, tmp_path / "first")
    second, digests2 = _traced_run(name, tmp_path / "second")
    assert first == second
    assert digests1 == digests2
    assert len(first) == sum(n.endswith(COUNT_SUFFIXES) for n in tracing.LAYERS)
    for metric, value in expected.items():
        assert first[metric] == pytest.approx(value, abs=0.01)


def test_missing_name_fails_and_rebinds_nothing(monkeypatch):
    original = hxtwin.harness.ref_output
    monkeypatch.delattr(hxtwin.ekf, "central_jacobian")
    with pytest.raises(tracing.TracingError, match="central_jacobian"):
        with tracing.Tracer():
            pass
    assert hxtwin.harness.ref_output is original


def test_layer_without_calls_fails():
    with tracing.Tracer() as tracer:
        pass
    with pytest.raises(tracing.TracingError, match="no ref_output calls"):
        tracer.require_calls(("ref_output",))


def test_replay_sample_spans_all_calls(monkeypatch):
    monkeypatch.setattr(tracing, "REPLAY_CAP", 8)
    tracer = tracing.Tracer()
    keep = tracer._keep_every_nth("enthalpy", None)
    for call in range(1, 101):
        keep((call,), {})
    kept = [args[0] for _fn, args, _kwargs in tracer.replay["enthalpy"]]
    assert kept == list(range(1, 101, 16))


def test_energy_balance_gate_counts_a_broken_sample(tmp_path):
    wl = workloads.WORKLOADS["chirp_truth"]
    ctx = workloads.load_context(wl, SEED, tmp_path)
    short = workloads.replace(ctx.scn, duration_s=20 * ctx.scn.dt_s)
    out = workloads.PassResult(truth_samples=21)
    out.telemetry = hxtwin.harness.run_truth_sim(short, seed=SEED)
    assert workloads.check_pass(wl, ctx, out).failed == 0
    rec = out.telemetry[7]
    out.telemetry[7] = workloads.replace(rec, T_h2_true_K=rec.T_h2_true_K + 1e-6)
    checks = workloads.check_pass(wl, ctx, out)
    assert (checks.attempted, checks.failed) == (21, 1)


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.LAYERS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "samples_per_s", "peak_rss_mb"}
    for _moves, on in tracing.LAYERS.values():
        assert on == "all" or set(on.split()) <= set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chirp_truth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
