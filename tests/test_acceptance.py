"""Acceptance suite: one test per shipped claim, at the stated tolerance.

Each test measures the quantities behind its claim, appends a single
PASS/FAIL line with the numbers to the session acceptance log, and then
asserts.  Criteria 5-7 share one chirp-scenario session; criterion 8
shares one coolant-step session.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from hxtwin.approx_model import (
    CpParams,
    approx_steady,
    g_closed_form,
    universal_residual,
)
from hxtwin.correlations import serial_conductance
from hxtwin.fluids import CaloricallyPerfect, StreamConfig
from hxtwin.harness import bench_models, run_monitor, run_truth_sim
from hxtwin.metrics import innovation_means, model_free_rating, recovery_time, window_errors
from hxtwin.records import write_monitor_csv, write_telemetry_csv
from hxtwin.reference_model import (
    Conductances,
    InletConditions,
    WallState,
    ref_steady_outlets,
    steady_wall_temps,
    verify_uniqueness,
)
from hxtwin.sampledata import make_coolant_model
from hxtwin.scenario import load_scenario
from hxtwin.wall_dynamics import (
    WallDynamicsConfig,
    integrate_step,
    reference_wall_rhs,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _report(log, idx, ok, detail):
    log.append(f"criterion {idx:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {idx}: {detail}"


def _random_operating_point(rng, max_ntu):
    """Admissible constant-cp operating point with bounded NTU."""
    cp_h = rng.uniform(600.0, 4500.0)
    cp_c = rng.uniform(600.0, 4500.0)
    T_h1 = rng.uniform(310.0, 470.0)
    T_c1 = rng.uniform(240.0, T_h1 - 8.0)
    u = InletConditions(T_h1, T_c1, rng.uniform(0.3, 45.0), rng.uniform(0.3, 45.0))
    aA_h = rng.uniform(200.0, 8.0e4)
    aA_c = rng.uniform(200.0, 8.0e4)
    W_min = min(u.mdot_h * cp_h, u.mdot_c * cp_c)
    kA = serial_conductance(aA_h, aA_c)
    if kA > max_ntu * W_min:
        shrink = max_ntu * W_min / kA
        aA_h *= shrink
        aA_c *= shrink
    hot = StreamConfig(CaloricallyPerfect(cp_h), 1.0e6)
    cold = StreamConfig(CaloricallyPerfect(cp_c), 5.0e5)
    return u, Conductances(aA_h, aA_c), hot, cold, cp_h, cp_c


# ---------------------------------------------------------------------------
# Shared scenario sessions


@pytest.fixture(scope="module")
def chirp_session():
    scn = load_scenario(SCENARIOS / "chirp_tracking.cfg")
    t0 = time.perf_counter()
    telemetry = run_truth_sim(scn)
    tracked = run_monitor(scn, telemetry)
    runtime_s = time.perf_counter() - t0
    constant_cp = run_monitor(scn, telemetry, cp_model="constant")
    times = [r.t_s for r in telemetry]
    truth_kA = [r.kA_W_K for r in telemetry]
    return {
        "scn": scn,
        "telemetry": telemetry,
        "tracked": tracked,
        "constant_cp": constant_cp,
        "times": times,
        "truth_kA": truth_kA,
        "runtime_s": runtime_s,
    }


@pytest.fixture(scope="module")
def coolant_session():
    scn = load_scenario(SCENARIOS / "coolant_step.cfg")
    t0 = time.perf_counter()
    telemetry = run_truth_sim(scn)
    monitors = {v: run_monitor(scn, telemetry, variant=v) for v in "ABC"}
    runtime_s = time.perf_counter() - t0
    return {
        "scn": scn,
        "telemetry": telemetry,
        "monitors": monitors,
        "runtime_s": runtime_s,
    }


def _tail_kA_relerr(telemetry, monitor, t_from):
    truth = {r.t_s: r.kA_W_K for r in telemetry}
    errs = [
        abs(m.kA_hat_W_K - truth[m.t_s]) / truth[m.t_s]
        for m in monitor
        if m.t_s >= t_from
    ]
    return sum(errs) / len(errs)


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_steady_equivalence(acceptance_log):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        u, cond, hot, cold, cp_h, cp_c = _random_operating_point(rng, max_ntu=4.0)
        ref = ref_steady_outlets(u, cond.kA, hot, cold)
        cp = CpParams(cp_h, cp_c, cp_h, cp_c)
        app = approx_steady(u, cond.kA, cp)
        worst = max(worst, abs(app.T_h2 - ref.T_h2), abs(app.T_c2 - ref.T_c2))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(acceptance_log, 1,
            ok, f"steady equivalence: max |dT| = {worst:.2e} K over 200 "
                f"constant-cp inputs (tol 1e-6 K), {elapsed:.1f} s (< 10 s)")


def test_criterion_02_closed_form_residual(acceptance_log):
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_residual = 0.0
    for _ in range(1000):
        dT_I = rng.uniform(0.5, 40.0)
        dT_w = rng.uniform(-0.9 * dT_I, 30.0)
        aA = rng.uniform(50.0, 3.0e4)
        C_p = rng.uniform(100.0, 1.0e5)
        gamma = 1.0 if rng.uniform() < 0.5 else -1.0
        beta_star2 = 1.0 - 2.0 * C_p * (dT_I + dT_w) / (dT_I * aA)
        lo = max(0.0, beta_star2)
        beta = lo + (1.0 - lo) * rng.uniform()
        side = (dT_I, dT_w, aA, C_p)
        g = g_closed_form(*side, beta)
        # the published residual carries gamma; it scales, never moves, the root
        residual = gamma * universal_residual(*side, g, beta)
        worst_residual = max(worst_residual, abs(residual))
    worst_linear = 0.0
    for _ in range(200):
        dT_I = rng.uniform(-20.0, 40.0)
        dT_w = rng.uniform(-20.0, 40.0)
        aA = rng.uniform(50.0, 3.0e4)
        C_p = rng.uniform(100.0, 1.0e5)
        oracle = (2.0 * C_p * (dT_I + dT_w) - aA * dT_I) / (2.0 * C_p + aA)
        g = g_closed_form(dT_I, dT_w, aA, C_p, 0.0)
        worst_linear = max(worst_linear, abs(g - oracle))
    elapsed = time.perf_counter() - t0
    ok = worst_residual < 1e-6 and worst_linear <= 1e-9 and elapsed < 5.0
    _report(acceptance_log, 2,
            ok, f"closed form: max |residual| = {worst_residual:.2e} W over "
                f"1000 samples (tol 1e-6 W), beta=0 vs linear "
                f"{worst_linear:.2e} K (tol 1e-9 K), {elapsed:.1f} s (< 5 s)")


def test_criterion_03_uniqueness_suite(acceptance_log):
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst_rs = 0.0
    all_single_root = True
    for k in range(100):
        u, cond, hot, cold, _cph, _cpc = _random_operating_point(rng, max_ntu=3.5)
        if k % 3 == 0:
            cold = StreamConfig(make_coolant_model(), 4.0e5)
        report = verify_uniqueness(u, cond, hot, cold)
        all_single_root &= report.sign_changes == 1 and report.passed
        worst_rs = max(worst_rs, abs(report.rs3_residual), abs(report.rs4_residual))
    elapsed = time.perf_counter() - t0
    ok = all_single_root and worst_rs < 1e-6 and elapsed < 30.0
    _report(acceptance_log, 3,
            ok, f"uniqueness: single root on 100/100 scenarios = "
                f"{all_single_root}, max |rs3|,|rs4| = {worst_rs:.2e} W "
                f"(tol 1e-6 W), {elapsed:.1f} s (< 30 s)")


def test_criterion_04_dynamic_stability(acceptance_log):
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    all_monotone = True
    all_converged = True
    worst_final = 0.0
    for _ in range(50):
        u, cond, hot, cold, _cph, _cpc = _random_operating_point(rng, max_ntu=3.0)
        steady = ref_steady_outlets(u, cond.kA, hot, cold)
        xs = steady_wall_temps(steady, u, cond)
        lam = rng.uniform(0.05, 1.5)  # 1/s relaxation scale
        cfg = WallDynamicsConfig(theta7=(cond.aA_h + cond.aA_c) / lam)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        # keep the displaced wall strictly between the stream intakes:
        # cap the magnitude by 80% of the headroom on the chosen side
        room = u.T_h1 - xs.T_w1 if sign > 0.0 else xs.T_w2 - u.T_c1
        hi = min(6.0, 0.8 * room)
        lo = min(0.5, 0.25 * hi)
        x = WallState(
            xs.T_w1 + sign * rng.uniform(lo, hi),
            xs.T_w2 + sign * rng.uniform(lo, hi),
        )
        rhs = reference_wall_rhs(u, cond, hot, cold, cfg)
        err = math.hypot(x.T_w1 - xs.T_w1, x.T_w2 - xs.T_w2)
        for _step in range(60):
            x = integrate_step(rhs, x, 5.0, cfg.substeps_per_sample)
            new_err = math.hypot(x.T_w1 - xs.T_w1, x.T_w2 - xs.T_w2)
            all_monotone &= new_err < err
            err = new_err
            if err < 0.01:
                break
        all_converged &= err < 0.01
        worst_final = max(worst_final, err)
    elapsed = time.perf_counter() - t0
    ok = all_monotone and all_converged and elapsed < 30.0
    _report(acceptance_log, 4,
            ok, f"dynamic stability: monotone = {all_monotone}, all 50 reached "
                f"< 0.01 K (worst final {worst_final:.2e} K), "
                f"{elapsed:.1f} s (< 30 s)")


def test_criterion_05_chirp_tracking(acceptance_log, chirp_session):
    s = chirp_session
    ekf_windows = window_errors(
        s["times"], [m.kA_hat_W_K for m in s["tracked"]], s["truth_kA"],
        t_start=300.0, window_s=300.0, agg="mean",
    )
    free = [model_free_rating(r, s["scn"].hot) for r in s["telemetry"]]
    free_windows = window_errors(
        s["times"], free, s["truth_kA"],
        t_start=300.0, window_s=300.0, agg="max",
    )
    ok = (max(ekf_windows) <= 0.05
          and max(free_windows) > 0.15
          and s["runtime_s"] < 120.0)
    _report(acceptance_log, 5,
            ok, f"chirp tracking: EKF kA relerr per 5-min window max = "
                f"{max(ekf_windows):.4f} (<= 0.05), model-free worst window = "
                f"{max(free_windows):.3f} (> 0.15), {s['runtime_s']:.0f} s "
                f"(< 120 s)")


def test_criterion_06_constant_cp_bias(acceptance_log, chirp_session):
    s = chirp_session
    t_tail = s["times"][-1] - 600.0
    biased = _tail_kA_relerr(s["telemetry"], s["constant_cp"], t_tail)
    matched = _tail_kA_relerr(s["telemetry"], s["tracked"], t_tail)
    mh, mc = innovation_means(s["constant_cp"], t_tail)
    innov = max(abs(mh), abs(mc))
    ok = biased > 5.0 * matched and biased > 0.05 and innov >= 0.15
    _report(acceptance_log, 6,
            ok, f"constant-cp bias: kA relerr {biased:.3f} vs matched "
                f"{matched:.4f} (> 5x and > 0.05), |mean innovation| = "
                f"{innov:.2f} K (>= 0.15 K)")


def test_criterion_07_matched_innovation(acceptance_log, chirp_session):
    s = chirp_session
    mh, mc = innovation_means(s["tracked"], s["times"][-1] - 600.0)
    ok = abs(mh) <= 0.03 and abs(mc) <= 0.03
    _report(acceptance_log, 7,
            ok, f"matched innovation: final-10-min means h = {mh:+.4f} K, "
                f"c = {mc:+.4f} K (each |.| <= 0.03 K)")


def test_criterion_08_coolant_step_variants(acceptance_log, coolant_session):
    s = coolant_session
    mons = s["monitors"]
    rec_B = recovery_time(mons["B"], 120.0, 20.5, 0.10)
    mh_A, mc_A = innovation_means(mons["A"], 150.0)
    bias_A = max(abs(mh_A), abs(mc_A))
    tails = {v: _tail_kA_relerr(s["telemetry"], mons[v], 300.0) for v in "ABC"}
    ok = (rec_B is not None and rec_B <= 120.0 + 300.0
          and bias_A >= 0.15
          and tails["B"] < tails["A"] and tails["B"] < tails["C"]
          and s["runtime_s"] < 60.0)
    _report(acceptance_log, 8,
            ok, f"coolant step: B flow within 10% at t = {rec_B} s "
                f"(<= 420 s), A innovation bias {bias_A:.2f} K (>= 0.15), "
                f"tail kA relerr B {tails['B']:.4f} < A {tails['A']:.4f} "
                f"and < C {tails['C']:.4f}, {s['runtime_s']:.0f} s (< 60 s)")


def test_criterion_09_performance(acceptance_log):
    scn = load_scenario(SCENARIOS / "chirp_tracking.cfg")
    result = bench_models(scn, 10000)
    print(result.as_table())
    ok = result.speedup >= 10.0 and result.n_evals >= 10000
    _report(acceptance_log, 9,
            ok, f"performance: approximate {result.speedup:.0f}x faster than "
                f"reference over {result.n_evals} tabulated-fluid evaluations "
                f"(>= 10x; ref {result.ref_s_per_eval:.2e} s/eval, approx "
                f"{result.approx_s_per_eval:.2e} s/eval)")


def test_criterion_10_determinism(acceptance_log, tmp_path):
    scn = load_scenario(SCENARIOS / "smoke_constant.cfg")
    blobs = []
    for run in ("first", "second"):
        telemetry = run_truth_sim(scn)
        monitor = run_monitor(scn, telemetry)
        tel_path = tmp_path / f"{run}_tel.csv"
        mon_path = tmp_path / f"{run}_mon.csv"
        write_telemetry_csv(telemetry, tel_path)
        write_monitor_csv(monitor, mon_path)
        blobs.append((tel_path.read_bytes(), mon_path.read_bytes()))
    ok = blobs[0] == blobs[1]
    _report(acceptance_log, 10,
            ok, f"determinism: repeated runs byte-identical = {ok} "
                f"({len(blobs[0][0])} telemetry bytes, "
                f"{len(blobs[0][1])} monitor bytes)")
