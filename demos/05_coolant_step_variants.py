#!/usr/bin/env python3
"""Recovering from a dead coolant flow meter.

At t = 120 s the plant's coolant flow drops from 41 to 20.5 kg/s, but
the monitor never sees that reading (trust_mdot_c = false in the
scenario).  Three monitor variants handle the missing signal:

  A  keeps using the stale pre-step value,
  B  adds mdot_c to the EKF state and estimates it from temperatures,
  C  drops the cold outlet channel entirely and relies on the hot side.

Run this to see B pick up the new flow within seconds while A develops
a sustained cold-side innovation bias and a wrong rating.
"""

from pathlib import Path

from hxtwin.harness import run_monitor, run_truth_sim
from hxtwin.metrics import innovation_means, recovery_time
from hxtwin.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
T_STEP = 120.0
MDOT_AFTER = 20.5


def tail_relerr(telemetry, monitor, t_from):
    pairs = [(r.kA_W_K, m.kA_hat_W_K)
             for r, m in zip(telemetry, monitor) if r.t_s >= t_from]
    return max(abs(kh - k) / k for k, kh in pairs)


def main():
    scn = load_scenario(ROOT / "scenarios" / "coolant_step.cfg")
    telemetry = run_truth_sim(scn)
    monitors = {v: run_monitor(scn, telemetry, variant=v) for v in "ABC"}

    print(f"scenario {scn.name}: coolant flow steps to {MDOT_AFTER} kg/s "
          f"at t = {T_STEP:.0f} s\n")

    print("variant B flow estimate around the step:")
    for m in monitors["B"]:
        if 110.0 <= m.t_s <= 150.0 and m.t_s % 5 == 0:
            print(f"  t = {m.t_s:5.0f} s   mdot_c_hat = {m.mdot_c_hat_kg_s:7.2f} kg/s")
    t_rec = recovery_time(monitors["B"], T_STEP, MDOT_AFTER, rel_tol=0.10)
    print(f"  within 10% of the true flow from t = {t_rec:.0f} s "
          f"({t_rec - T_STEP:.0f} s after the step)\n")

    print("innovation means after the step and worst tail rating error:")
    for v in "ABC":
        ih, ic = innovation_means(monitors[v], t_from=T_STEP + 60.0)
        rel = tail_relerr(telemetry, monitors[v], scn.duration_s - 120.0)
        cold = "   n/a " if ic != ic else f"{ic:+7.3f}"
        print(f"  variant {v}: hot {ih:+7.3f} K   cold {cold} K   "
              f"tail kA relerr {rel:7.4f}")

    print("\nA trusts a dead sensor and pays in bias; C stays unbiased but "
          "slower;\nB re-estimates the flow and gets the best rating.")


if __name__ == "__main__":
    main()
