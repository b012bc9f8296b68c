#!/usr/bin/env python3
"""Online rating estimation under a frequency sweep.

Simulates 40 minutes of plant truth with chirped inlets (0 to 0.5 Hz)
while the film conductances degrade on a ramp, then runs three ways of
reading the thermal rating kA off the telemetry:

* the joint EKF with tracked mean specific heats (the monitor proper),
* the same EKF with a constant hot-side cp of 2300 J/(kg K),
* the model-free steady calculation Qdot_h / LMTD from measured outlets.

Prints the relative kA error per 5 minute window for each, and writes
the telemetry and monitor CSVs next to this script under demo_out/.
"""

from pathlib import Path

from hxtwin.harness import run_monitor, run_truth_sim
from hxtwin.metrics import innovation_means, model_free_rating, window_errors
from hxtwin.records import write_monitor_csv, write_telemetry_csv
from hxtwin.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent


def main():
    scn = load_scenario(ROOT / "scenarios" / "chirp_tracking.cfg")
    print(f"scenario {scn.name}: {scn.duration_s:.0f} s at dt = {scn.dt_s} s, "
          f"seed {scn.seed}")

    telemetry = run_truth_sim(scn)
    tracked = run_monitor(scn, telemetry)
    constant = run_monitor(scn, telemetry, cp_model="constant")

    out = Path(__file__).resolve().parent / "demo_out"
    out.mkdir(exist_ok=True)
    write_telemetry_csv(telemetry, out / "chirp_telemetry.csv")
    write_monitor_csv(tracked, out / "chirp_monitor.csv")
    print(f"wrote {out / 'chirp_telemetry.csv'}")
    print(f"wrote {out / 'chirp_monitor.csv'}")

    times = [r.t_s for r in telemetry]
    truth = [r.kA_W_K for r in telemetry]
    free = [model_free_rating(r, scn.hot) for r in telemetry]

    kw = dict(t_start=300.0, window_s=300.0)
    w_trk = window_errors(times, [m.kA_hat_W_K for m in tracked], truth, **kw)
    w_cst = window_errors(times, [m.kA_hat_W_K for m in constant], truth, **kw)
    w_fre = window_errors(times, free, truth, agg="max", **kw)

    print("\nrelative kA error per 5 min window (after a 5 min settle):")
    print(f"{'window':>10} {'EKF tracked':>12} {'EKF const cp':>13} "
          f"{'model-free max':>15}")
    for i, (a, b, c) in enumerate(zip(w_trk, w_cst, w_fre)):
        lo = 300 + 300 * i
        print(f"{lo:>5}-{lo + 300:<4} {a:12.4f} {b:13.4f} {c:15.3f}")

    ih, ic = innovation_means(tracked, t_from=scn.duration_s - 600.0)
    print(f"\ntracked-cp innovation means over the last 10 min: "
          f"hot {ih:+.4f} K, cold {ic:+.4f} K")
    ih, ic = innovation_means(constant, t_from=scn.duration_s - 600.0)
    print(f"constant-cp innovation means over the last 10 min: "
          f"hot {ih:+.4f} K, cold {ic:+.4f} K")
    print("\nthe wall stores heat under excitation, so the steady formula "
          "scatters;\nthe EKF tracks the ramp, and a wrong cp shows up as a "
          "biased innovation.")


if __name__ == "__main__":
    main()
