"""The benchmark's traced run still reaches every layer it times.

``perfbench/tracing.py`` rebinds hxtwin names in the modules that call
them.  A refactor that moves such a call out of reach leaves its layer
without calls; running the smoke_constant pipeline under the tracer
shows that here, not only in the slower ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_traced_smoke_pipeline_reaches_every_layer(tmp_path):
    scn = workloads.load_scenario(workloads.SCENARIOS / "smoke_constant.cfg")
    telemetry_path = tmp_path / "telemetry.csv"
    with tracing.Tracer() as tracer:
        telemetry = workloads.run_truth_sim(scn)
        workloads.write_telemetry_csv(telemetry, telemetry_path)
        telemetry = workloads.read_telemetry_csv(telemetry_path)
        monitor = workloads.run_monitor(scn, telemetry)
        workloads.write_monitor_csv(monitor, tmp_path / "monitor.csv")
        workloads.compare_report(telemetry, monitor, hot=scn.hot,
                                 window_s=20.0, settle_s=10.0)
    tracer.require_calls(tracing.SPANNED)
    tracer.require_calls(tracing.COUNTED)
    # sample_ms_p50/p99 time predictions within one run_monitor span
    stats = tracing.SpanStats(tracer)
    (monitor_span,) = stats.mask("run_monitor").nonzero()[0]
    assert set(stats.parent[stats.mask("ekf_predict")].tolist()) == {monitor_span}
