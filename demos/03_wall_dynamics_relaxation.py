#!/usr/bin/env python3
"""Wall relaxation toward the steady state, reference vs approximate.

Starts the wall 4 K hot of its steady value and integrates both models'
wall dynamics with fixed-step RK4.  The error plane sector logic makes
the wall slide straight at the steady point, with the speed set by the
net heat parked in the wall over its capacity theta7.  Both trajectories
should land on the same steady wall state.
"""

import math
from pathlib import Path

from hxtwin.approx_model import update_cp_params
from hxtwin.ekf import parameter_terms
from hxtwin.reference_model import (
    WallState,
    ref_steady_outlets,
    steady_wall_temps,
)
from hxtwin.scenario import initial_point, load_scenario
from hxtwin.wall_dynamics import ApproxStage, integrate_step, reference_wall_rhs

ROOT = Path(__file__).resolve().parent.parent


def err(x, xs):
    return math.hypot(x.T_w1 - xs.T_w1, x.T_w2 - xs.T_w2)


def main():
    scn = load_scenario(ROOT / "scenarios" / "smoke_constant.cfg")
    u, cond = initial_point(scn)
    steady = ref_steady_outlets(u, cond.kA, scn.hot, scn.cold)
    xs = steady_wall_temps(steady, u, cond)
    cp = update_cp_params(scn.hot, scn.cold, u, steady, steady)
    cfg = scn.plant.wall

    rhs_ref = reference_wall_rhs(u, cond, scn.hot, scn.cold, cfg)
    # the monitor's film model is alpha_A = upsilon, so leading factors
    # equal to the truth conductances give the terms at the truth point
    terms = parameter_terms(scn.monitoring.ekf, (cond.aA_h, cond.aA_c), u, cp)
    rhs_apx = ApproxStage(u, cp, terms, cfg).rates

    x_ref = WallState(xs.T_w1 + 4.0, xs.T_w2 + 4.0)
    x_apx = x_ref
    dt = 2.0
    print(f"steady wall: ({xs.T_w1:.4f}, {xs.T_w2:.4f}) K, "
          f"theta7 = {cfg.theta7:.0f} J/K")
    print(f"\n{'t / s':>6} {'ref |e|':>10} {'apx |e|':>10}")
    for k in range(8):
        t = k * dt
        print(f"{t:6.0f} {err(x_ref, xs):10.5f} {err(x_apx, xs):10.5f}")
        x_ref = integrate_step(rhs_ref, x_ref, dt, cfg.substeps_per_sample)
        x_apx = integrate_step(rhs_apx, x_apx, dt, cfg.substeps_per_sample)

    print(f"\nfinal reference wall:   ({x_ref.T_w1:.6f}, {x_ref.T_w2:.6f})")
    print(f"final approximate wall: ({x_apx.T_w1:.6f}, {x_apx.T_w2:.6f})")
    print(f"gap between the two: {err(x_ref, x_apx):.2e} K "
          "(both relax to the same fixed point)")


if __name__ == "__main__":
    main()
