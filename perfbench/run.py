"""hxtwin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (telemetry
samples x pipeline stages, checked against the correctness gates) and
``metrics``, which holds every end-to-end metric of BENCHMARK.json with
``--trace 0`` and every per-layer metric with ``--trace 1``.  The lines
before it report the same run for people, per stage and with sample
counts.

Untraced: set up in a fresh process, from interpreter start to the
telemetry on disk; load what set-up left; warm up on a short slice; then
repeat whole passes of the workload for about ``--seconds`` (at least
two, so that their output files can be compared byte for byte).  The
set-up is repeated between passes, spread evenly over the run, and its
median is ``setup_s``.
Traced: one untraced and one traced pass, which also gives the cost of
tracing; see tracing.py.
"""

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 2


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(correct, attempted, failed, values, spec_metrics) -> str:
    names = [m["name"] for m in spec_metrics]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in spec_metrics},
    })


def _spread(values) -> str:
    if len(values) == 1:
        return "n=1"
    return f"min {min(values):.4g}, max {max(values):.4g}, n={len(values)}"


def _report_pass_stats(wl, passes, checks) -> None:
    first = passes[0]
    if first.truth_samples:
        rates = [p.truth_samples / p.truth_s for p in passes]
        print(f"truth_samples_per_s {statistics.median(rates):.6g} samples/s "
              f"(median over passes of {first.truth_samples} samples; {_spread(rates)})")
    if first.monitor_samples:
        rates = [p.monitor_samples / p.monitor_s for p in passes]
        print(f"monitor_samples_per_s {statistics.median(rates):.6g} samples/s "
              f"(median over passes of {first.monitor_samples} samples x variants "
              f"{','.join(wl.variants)}; {_spread(rates)})")
        print(f"kA_relerr_worst_window {checks.worst_window:.6g} 1 "
              f"(max over variants {','.join(wl.variants)}; exact for the seed)")
    print(f"samples attempted {checks.attempted}, failed {checks.failed}")
    for err in checks.errors:
        print(f"FAILED: {err}")


def _digest_mismatch(passes) -> list[str]:
    ref = passes[0].digests
    return [f"pass {i + 1} output differs from pass 1 at one seed"
            for i, p in enumerate(passes[1:], 1) if p.digests != ref]


def _setup_in_child(wl, seed, workdir) -> float:
    """Wall time of a fresh process that starts, imports hxtwin and sets
    the workload up into workdir."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(seed), "--seconds", "0", "--setup-into", str(workdir)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True)
    return time.perf_counter() - t0


def run_untraced(wl, seed, seconds, workdir, spec):
    import workloads

    setups, setup_digests = [], []

    def set_up(into: Path) -> None:
        into.mkdir(exist_ok=True)
        setups.append(_setup_in_child(wl, seed, into))
        if not wl.simulate:
            setup_digests.append(workloads.sha256_file(into / workloads.TELEMETRY_CSV))

    set_up(workdir)
    ctx = workloads.load_context(wl, seed, workdir)
    workloads.warm_up(wl, ctx)
    passes, checks = [], workloads.CheckResult()
    while True:
        out = workloads.run_pass(wl, ctx)
        checks.add(workloads.check_pass(wl, ctx, out))
        # keep timings and digests only, so memory does not grow per pass
        out.telemetry, out.monitors = [], {}
        passes.append(out)
        timed_s = sum(p.seconds for p in passes)
        # the other set-ups go between passes, in step with the timed
        # time, so that their median samples the host's load over the
        # whole run
        due = min(wl.setup_repeats, math.ceil(wl.setup_repeats * timed_s / seconds))
        while len(setups) < due:
            set_up(workdir / "again")
        # stop where another pass would end more than half a pass past
        # --seconds, so that the timed section lasts about that long
        if len(passes) >= MIN_PASSES and timed_s * (1 + 0.5 / len(passes)) > seconds:
            break
    while len(setups) < wl.setup_repeats:
        set_up(workdir / "again")
    setup_s = statistics.median(setups)
    print(f"setup_s {setup_s:.6g} s (median of {len(setups)} set-ups, each in a "
          f"fresh process; {_spread(setups)})")
    checks.errors += _digest_mismatch(passes)
    if len(set(setup_digests)) > 1:
        checks.errors.append("set-up telemetry differs between set-ups at one seed")
    _report_pass_stats(wl, passes, checks)

    rates = [p.samples / p.seconds for p in passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"samples_per_s {statistics.median(rates):.6g} samples/s, median over "
          f"{len(passes)} passes of {passes[0].samples} samples taking "
          f"{' '.join(f'{p.seconds:.3f}' for p in passes)} s")
    print(f"peak_rss_mb {peak_rss_mb:.6g} MB")
    values = {
        "setup_s": setup_s,
        "samples_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb,
    }
    return _result(not checks.errors, checks.attempted, checks.failed,
                   values, spec["end_to_end"])


def run_traced(wl, seed, workdir, spec):
    import tracing
    import workloads
    from hxtwin.harness import bench_models, load_scenario

    # The chirp_monitor set-up simulates chirp telemetry: trace it too so
    # that its ref_output calls can be replayed for the in-loop speed-up.
    with tracing.Tracer() as setup_tracer:
        ctx = workloads.setup(wl, seed, workdir)
    workloads.warm_up(wl, ctx)
    plain = workloads.run_pass(wl, ctx)
    with tracing.Tracer() as tracer:
        traced = workloads.run_pass(wl, ctx)
    tracer.require_calls(wl.required_calls)
    tracer.write_spans(OUT / f"spans-{wl.name}.csv")

    checks = workloads.CheckResult()
    for out in (plain, traced):
        checks.add(workloads.check_pass(wl, ctx, out))
    if traced.digests != plain.digests:
        checks.errors.append("traced pass output differs from the untraced pass")
    _report_pass_stats(wl, [plain], checks)

    ref_tracer = tracer if tracer.replay["ref_output"] else setup_tracer
    chirp = load_scenario(workloads.SCENARIOS / "chirp_tracking.cfg")
    values = tracing.layer_metrics(
        tracer,
        *workloads.sample_steps(wl, traced),
        ref_output_us=ref_tracer.replay_us_per_call("ref_output"),
        criterion9_speedup=bench_models(chirp, 10000).speedup,
        worst_window=checks.worst_window,
        tracing_overhead=traced.seconds / plain.seconds - 1.0,
    )
    for name in sorted(values):
        print(f"{name} {values[name]:.6g}")
    print(f"spans written to {OUT / f'spans-{wl.name}.csv'}")
    return _result(not checks.errors, checks.attempted, checks.failed,
                   values, spec["per_layer"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # hxtwin comes from this checkout's sources, never from an install
    if not (SRC / "hxtwin" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hxtwin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.setup_into is not None:
        workloads.setup(wl, args.seed, args.setup_into)
        return 0

    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = _spec()
    workdir = OUT / f"{wl.name}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            line = run_traced(wl, args.seed, workdir, spec)
        else:
            line = run_untraced(wl, args.seed, args.seconds, workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
