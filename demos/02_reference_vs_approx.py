#!/usr/bin/env python3
"""Reference model vs one-step approximation at a single operating point.

The reference model finds each outlet temperature by bracketed root
search on the side energy balance; the approximate model replaces the
log-mean temperature difference with a beta-weighted blend of geometric
and arithmetic means, which makes the outlet a closed-form root of a
quadratic.  This script compares the two at the steady wall state and at
a displaced wall, then times both on the tabulated-fluid scenario.
"""

from pathlib import Path

from hxtwin.approx_model import evaluate_approx, update_cp_params
from hxtwin.ekf import parameter_terms
from hxtwin.harness import bench_models
from hxtwin.reference_model import (
    WallState,
    ref_output,
    ref_steady_outlets,
    steady_wall_temps,
)
from hxtwin.scenario import initial_point, load_scenario

ROOT = Path(__file__).resolve().parent.parent


def main():
    scn = load_scenario(ROOT / "scenarios" / "chirp_tracking.cfg")
    u, cond = initial_point(scn)

    steady = ref_steady_outlets(u, cond.kA, scn.hot, scn.cold)
    xs = steady_wall_temps(steady, u, cond)
    cp = update_cp_params(scn.hot, scn.cold, u, steady, steady)
    print(f"operating point: T_h1 = {u.T_h1:.1f} K, T_c1 = {u.T_c1:.1f} K, "
          f"kA = {cond.kA:.0f} W/K")
    print(f"steady outlets (reference): T_h2 = {steady.T_h2:.4f}, "
          f"T_c2 = {steady.T_c2:.4f}")
    print(f"steady wall: T_w1 = {xs.T_w1:.4f}, T_w2 = {xs.T_w2:.4f}")

    print("\noutlets with the wall displaced from steady state:")
    print(f"{'dT_w / K':>10} {'ref T_h2':>12} {'apx T_h2':>12} "
          f"{'ref T_c2':>12} {'apx T_c2':>12} {'beta_h':>8} {'beta_c':>8}")
    # the monitor's film model is alpha_A = upsilon, so leading factors
    # equal to the truth conductances give the terms at the truth point
    terms = parameter_terms(scn.monitoring.ekf, (cond.aA_h, cond.aA_c), u, cp)
    for d in (0.0, 1.0, 3.0, -3.0):
        x = WallState(xs.T_w1 + d, xs.T_w2 + d)
        ref = ref_output(x, u, cond, scn.hot, scn.cold)
        ev = evaluate_approx(x, u, cp, terms)
        print(f"{d:10.1f} {ref.T_h2:12.4f} {ev.outlets.T_h2:12.4f} "
              f"{ref.T_c2:12.4f} {ev.outlets.T_c2:12.4f} "
              f"{ev.beta_hot.beta:8.4f} {ev.beta_cold.beta:8.4f}")

    print("\ntiming both transient evaluations (tabulated hot fluid):")
    print(bench_models(scn, n_evals=5000).as_table(), end="")


if __name__ == "__main__":
    main()
