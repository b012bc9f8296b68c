"""Tests for the iterative reference model and its steady-state solver."""

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hxtwin.reference_model as reference_model
from hxtwin.fluids import CaloricallyPerfect, StreamConfig, ThermallyPerfect
from hxtwin.harness import run_truth_sim
from hxtwin.means import heat_rate
from hxtwin.reference_model import (
    OUTPUT_FTOL,
    BracketError,
    Conductances,
    InletConditions,
    NoSolutionError,
    OutletTemps,
    WallState,
    ref_output,
    ref_output_detailed,
    ref_steady_outlets,
    solve_bracketed,
    steady_wall_temps,
    verify_uniqueness,
)
from hxtwin.sampledata import make_co2_like_table, make_coolant_model
from hxtwin.scenario import load_scenario


def perfect_streams(cp_h=1000.0, cp_c=2000.0):
    return (
        StreamConfig(CaloricallyPerfect(cp_h), 1.0e6),
        StreamConfig(CaloricallyPerfect(cp_c), 5.0e5),
    )


def co2_streams():
    return (
        StreamConfig(make_co2_like_table(), 1.0e7),
        StreamConfig(make_coolant_model(), 5.0e5),
    )


def effectiveness_counterflow(W_h, W_c, kA, T_h1, T_c1):
    """Independent oracle: classical effectiveness-NTU closed form."""
    W_min, W_max = min(W_h, W_c), max(W_h, W_c)
    ntu = kA / W_min
    cr = W_min / W_max
    if cr == 1.0:
        eff = ntu / (1.0 + ntu)
    else:
        ex = math.exp(-ntu * (1.0 - cr))
        eff = (1.0 - ex) / (1.0 - cr * ex)
    q = eff * W_min * (T_h1 - T_c1)
    return OutletTemps(T_h1 - q / W_h, T_c1 + q / W_c)


# ---------------------------------------------------------------------------
# Root solver


def test_solve_bracketed_against_pure_bisection():
    def f(x):
        return x**3 - 2.0 * x - 5.0

    a, b = 2.0, 3.0
    fa = f(a)
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            a = b = m
            break
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b = m
    oracle = 0.5 * (a + b)

    x, fx, converged, iters = solve_bracketed(f, 2.0, 3.0, xtol=1e-12, ftol=1e-12)
    assert converged
    assert iters < 200
    assert x == pytest.approx(oracle, abs=1e-11)
    assert abs(fx) < 1e-10


def test_solve_bracketed_endpoint_root():
    x, fx, converged, iters = solve_bracketed(lambda t: t - 2.0, 2.0, 5.0)
    assert (x, fx, converged, iters) == (2.0, 0.0, True, 0)


def test_solve_bracketed_requires_sign_change():
    with pytest.raises(ValueError):
        solve_bracketed(lambda t: t * t + 1.0, -1.0, 1.0)


def test_solve_bracketed_steep_flat_mix():
    # Exponential residual: regula falsi alone stalls, the Illinois
    # weighting must still converge quickly.
    def f(x):
        return math.exp(8.0 * x) - 2.0

    root = math.log(2.0) / 8.0
    x, _, converged, iters = solve_bracketed(f, -1.0, 1.0, xtol=1e-12, ftol=1e-12)
    assert converged
    assert x == pytest.approx(root, abs=1e-10)
    assert iters < 80


# ---------------------------------------------------------------------------
# Transient output equations


def test_ref_output_against_test_local_bisection():
    hot, cold = co2_streams()
    u = InletConditions(T_h1=390.0, T_c1=300.0, mdot_h=30.0, mdot_c=41.0)
    x = WallState(T_w1=352.0, T_w2=331.0)
    cond = Conductances(5.5e4, 6.5e4)

    def res_h(T):
        return u.mdot_h * (
            hot.fluid.enthalpy(T, hot.pressure)
            - hot.fluid.enthalpy(u.T_h1, hot.pressure)
        ) + heat_rate(u.T_h1 - x.T_w1, T - x.T_w2, cond.aA_h)

    def res_c(T):
        return u.mdot_c * (
            cold.fluid.enthalpy(T, cold.pressure)
            - cold.fluid.enthalpy(u.T_c1, cold.pressure)
        ) - heat_rate(x.T_w1 - T, x.T_w2 - u.T_c1, cond.aA_c)

    def bisect(f, a, b):
        fa = f(a)
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = f(m)
            if fm == 0.0:
                return m
            if (fm < 0.0) == (fa < 0.0):
                a, fa = m, fm
            else:
                b = m
        return 0.5 * (a + b)

    oracle_h = bisect(res_h, x.T_w2, u.T_h1)
    oracle_c = bisect(res_c, u.T_c1, x.T_w1)

    outs, info = ref_output_detailed(x, u, cond, hot, cold)
    assert not info.flagged_hot and not info.flagged_cold
    assert outs.T_h2 == pytest.approx(oracle_h, abs=1e-7)
    assert outs.T_c2 == pytest.approx(oracle_c, abs=1e-7)
    assert abs(info.residual_hot) < 1e-6
    assert abs(info.residual_cold) < 1e-6


def test_ref_output_outlets_between_wall_and_inlet():
    hot, cold = perfect_streams()
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    x = WallState(360.0, 340.0)
    outs = ref_output(x, u, Conductances(800.0, 1200.0), hot, cold)
    assert x.T_w2 < outs.T_h2 < u.T_h1
    assert u.T_c1 < outs.T_c2 < x.T_w1


def test_ref_output_inverted_bracket_raises():
    hot, cold = perfect_streams()
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    x = WallState(T_w1=420.0, T_w2=410.0)  # wall above the hot intake
    with pytest.raises(BracketError):
        ref_output(x, u, Conductances(800.0, 1200.0), hot, cold)


def test_ref_output_no_sign_change_flags_nearest_endpoint():
    # Tiny flow with a huge conductance: the hot residual is positive on
    # the whole bracket, so the evaluation pins to the endpoint with the
    # smaller residual and raises the flag instead of failing.
    hot, cold = perfect_streams()
    u = InletConditions(400.0, 300.0, 0.001, 1.0)
    x = WallState(390.0, 380.0)
    outs, info = ref_output_detailed(x, u, Conductances(1.0e6, 1200.0), hot, cold)
    assert info.flagged_hot
    assert outs.T_h2 == x.T_w2


def test_ref_output_degenerate_point_bracket():
    # T_w2 == T_h1 collapses the hot bracket to one point.
    hot, cold = perfect_streams()
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    x = WallState(401.0, 400.0)
    outs, info = ref_output_detailed(x, u, Conductances(800.0, 1200.0), hot, cold)
    assert outs.T_h2 == 400.0
    assert info.flagged_hot  # nonzero residual at the collapsed bracket


def closes_or_is_next_to_root(residual, T):
    """Whether the increasing residual is within OUTPUT_FTOL at T, or T
    is the float nearest its root: where one ulp of T moves the residual
    by more than OUTPUT_FTOL (a large mdot cp, or the log mean's steep
    slope next to a bracket end), no float closes the balance closer."""
    r = residual(T)
    if abs(r) <= OUTPUT_FTOL:
        return True
    neighbour = residual(math.nextafter(T, -math.inf if r > 0.0 else math.inf))
    return (neighbour > 0.0) != (r > 0.0) and abs(r) <= abs(neighbour)


def sides(x, u, cond, hot, cold):
    """The arguments of reference_model._side_residual, and of _solve_side
    before its guess, for the hot and the cold side of the output
    equations at the walls x (see ref_output_detailed)."""
    p_h, p_c = hot.pressure, cold.pressure
    return ((hot.curve, u.mdot_h, hot.fluid.enthalpy(u.T_h1, p_h), u.T_h1 - x.T_w1,
             cond.aA_h, x.T_w2, u.T_h1, True),
            (cold.curve, u.mdot_c, cold.fluid.enthalpy(u.T_c1, p_c), x.T_w2 - u.T_c1,
             cond.aA_c, u.T_c1, x.T_w1, False))


class CountingPerfect(CaloricallyPerfect):
    """CaloricallyPerfect that counts its enthalpy evaluations, through
    enthalpy or through a curve."""

    def __init__(self, cp):
        super().__init__(cp)
        self.calls = 0

    def enthalpy(self, T, p):
        self.calls += 1
        return super().enthalpy(T, p)

    def curve(self, p):
        h_and_slope = super().curve(p)

        def counted(T):
            self.calls += 1
            return h_and_slope(T)

        return counted


@pytest.mark.parametrize("guess", [None, 280.0, 280.5])
def test_side_too_stiff_for_output_ftol_stops_at_adjacent_floats(guess):
    # At mdot_c cp = 4.18e8 W/K one ulp of T moves the cold residual by
    # 2.4e-5 W, past OUTPUT_FTOL: no float closes the balance, and the
    # search stops once its bracket ends are adjacent floats.
    fluid = CountingPerfect(4180.0)
    hot, cold = perfect_streams()[0], StreamConfig(fluid, 1e5)
    x, u = WallState(280.5, 280.5), InletConditions(281.0, 280.0, 1.0, 1e5)
    side = sides(x, u, Conductances(100.0, 100.0), hot, cold)[1]
    fluid.calls = 0
    T, r, flagged, q, _, _ = reference_model._solve_side(*side, guess)
    assert not flagged
    assert fluid.calls <= 10
    residual = reference_model._side_residual(*side)
    assert r == residual(T) and abs(r) > OUTPUT_FTOL
    assert q == heat_rate(x.T_w1 - T, x.T_w2 - u.T_c1, 100.0)
    assert closes_or_is_next_to_root(residual, T)


@pytest.fixture
def bracketed_calls(monkeypatch):
    """A list that grows by one on each solve_bracketed call."""
    calls = []
    bracketed = reference_model.solve_bracketed
    monkeypatch.setattr(reference_model, "solve_bracketed",
                        lambda *a, **k: calls.append(1) or bracketed(*a, **k))
    return calls


def recorded_states(name, duration_s):
    """(state, inlets, conductances, previous outlets) of each step of a
    truth run of a shipped scenario."""
    root = Path(__file__).resolve().parent.parent
    scn = load_scenario(root / "scenarios" / f"{name}.cfg")
    recs = run_truth_sim(dataclasses.replace(scn, duration_s=duration_s))
    states = []
    for prev, rec in zip(recs, recs[1:]):
        states.append((
            WallState(rec.T_w1_K, rec.T_w2_K),
            InletConditions(rec.T_h1_K, rec.T_c1_K, rec.mdot_h_kg_s, rec.mdot_c_kg_s),
            Conductances(rec.aA_h_W_K, rec.aA_c_W_K),
            OutletTemps(prev.T_h2_true_K, prev.T_c2_true_K),
        ))
    return scn, states


@pytest.mark.parametrize("name, duration_s", [
    ("chirp_tracking", 400.0), ("coolant_step", 300.0),
])
def test_warm_started_output_matches_bracketed(name, duration_s, bracketed_calls):
    scn, states = recorded_states(name, duration_s)
    for x, u, cond, prev in states:
        cold_start, info0 = ref_output_detailed(x, u, cond, scn.hot, scn.cold)
        n_cold = len(bracketed_calls)
        warm, info = ref_output_detailed(x, u, cond, scn.hot, scn.cold, guess=prev)
        assert len(bracketed_calls) == n_cold, "warm start fell back to the bracket"
        assert warm.T_h2 == pytest.approx(cold_start.T_h2, abs=1e-9)
        assert warm.T_c2 == pytest.approx(cold_start.T_c2, abs=1e-9)
        for i in (info0, info):
            assert not i.flagged_hot and not i.flagged_cold
            assert abs(i.residual_hot) <= OUTPUT_FTOL
            assert abs(i.residual_cold) <= OUTPUT_FTOL


CO2_STATE = (
    WallState(T_w1=352.0, T_w2=331.0),
    InletConditions(T_h1=390.0, T_c1=300.0, mdot_h=30.0, mdot_c=41.0),
    Conductances(5.5e4, 6.5e4),
)


@pytest.mark.parametrize("guess", ["below", "above", "lo", "hi"])
def test_guess_outside_the_bracket_starts_newton_inside(guess, bracketed_calls):
    # e.g. the previous cold outlet below a cold inlet that just rose
    hot, cold = co2_streams()
    x, u, cond = CO2_STATE
    start = {
        "below": OutletTemps(x.T_w2 - 5.0, u.T_c1 - 5.0),
        "above": OutletTemps(u.T_h1 + 5.0, x.T_w1 + 5.0),
        "lo": OutletTemps(x.T_w2, u.T_c1),
        "hi": OutletTemps(u.T_h1, x.T_w1),
    }[guess]
    expected = ref_output_detailed(x, u, cond, hot, cold)[0]
    bracketed_calls.clear()
    outlets, info = ref_output_detailed(x, u, cond, hot, cold, guess=start)
    assert bracketed_calls == []
    assert outlets.T_h2 == pytest.approx(expected.T_h2, abs=1e-9)
    assert outlets.T_c2 == pytest.approx(expected.T_c2, abs=1e-9)
    assert not info.flagged_hot and not info.flagged_cold
    assert abs(info.residual_hot) <= OUTPUT_FTOL
    assert abs(info.residual_cold) <= OUTPUT_FTOL


@pytest.mark.parametrize("guess", ["nan"])
def test_bad_guess_falls_back_to_the_bracket(guess, bracketed_calls):
    hot, cold = co2_streams()
    x, u, cond = CO2_STATE
    start = OutletTemps(math.nan, math.nan)
    expected = ref_output_detailed(x, u, cond, hot, cold)
    bracketed_calls.clear()
    assert ref_output_detailed(x, u, cond, hot, cold, guess=start) == expected
    assert len(bracketed_calls) == 2  # one bracketed search per side


def test_unconverged_bracketed_search_is_flagged(monkeypatch):
    hot, cold = co2_streams()
    monkeypatch.setattr(reference_model, "SOLVE_MAX_ITER", 2)
    _, info = ref_output_detailed(*CO2_STATE, hot, cold)
    assert info.flagged_hot and info.flagged_cold


# ---------------------------------------------------------------------------
# Steady state


def test_steady_constant_cp_frozen_values():
    # W_h = 1000 W/K, W_c = 2000 W/K, kA = 1000 W/K, 400/300 K intakes.
    hot, cold = perfect_streams(1000.0, 2000.0)
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    outs = ref_steady_outlets(u, 1000.0, hot, cold)
    assert outs.T_h2 == pytest.approx(343.5267, abs=2e-3)
    assert outs.T_c2 == pytest.approx(328.2367, abs=2e-3)
    oracle = effectiveness_counterflow(1000.0, 2000.0, 1000.0, 400.0, 300.0)
    assert outs.T_h2 == pytest.approx(oracle.T_h2, abs=1e-6)
    assert outs.T_c2 == pytest.approx(oracle.T_c2, abs=1e-6)


def test_steady_balanced_capacities():
    hot, cold = perfect_streams(1000.0, 1000.0)
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    outs = ref_steady_outlets(u, 1000.0, hot, cold)
    # Balanced counterflow with NTU = 1: effectiveness 1/2.
    assert outs.T_h2 == pytest.approx(350.0, abs=1e-6)
    assert outs.T_c2 == pytest.approx(350.0, abs=1e-6)


def test_steady_constant_cp_sweep_vs_effectiveness():
    cases = [
        (800.0, 3000.0, 500.0, 420.0, 290.0, 2.0, 1.5),
        (4000.0, 900.0, 2500.0, 380.0, 310.0, 0.5, 3.0),
        (1200.0, 1200.0, 6000.0, 500.0, 250.0, 1.0, 1.0),
    ]
    for cp_h, cp_c, kA, th1, tc1, mh, mc in cases:
        hot, cold = perfect_streams(cp_h, cp_c)
        u = InletConditions(th1, tc1, mh, mc)
        outs = ref_steady_outlets(u, kA, hot, cold)
        oracle = effectiveness_counterflow(mh * cp_h, mc * cp_c, kA, th1, tc1)
        assert outs.T_h2 == pytest.approx(oracle.T_h2, abs=1e-5)
        assert outs.T_c2 == pytest.approx(oracle.T_c2, abs=1e-5)


def test_steady_energy_closure_nonlinear_fluid():
    hot, cold = co2_streams()
    u = InletConditions(390.0, 300.0, 30.0, 41.0)
    kA = 3.0e4
    outs = ref_steady_outlets(u, kA, hot, cold)
    q_hot = u.mdot_h * (
        hot.fluid.enthalpy(u.T_h1, hot.pressure)
        - hot.fluid.enthalpy(outs.T_h2, hot.pressure)
    )
    q_cold = u.mdot_c * (
        cold.fluid.enthalpy(outs.T_c2, cold.pressure)
        - cold.fluid.enthalpy(u.T_c1, cold.pressure)
    )
    assert q_hot == pytest.approx(q_cold, rel=1e-7)
    q_lmtd = heat_rate(u.T_h1 - outs.T_c2, outs.T_h2 - u.T_c1, kA)
    assert q_cold == pytest.approx(q_lmtd, abs=1e-4)
    assert u.T_c1 < outs.T_c2 < u.T_h1
    assert u.T_c1 < outs.T_h2 < u.T_h1


FORWARD_DUTY_MESSAGE = "the reference model needs T_h1 > T_c1, got T_h1 = {!r} K and T_c1 = {!r} K"


def test_steady_rejects_equal_intakes():
    hot, cold = perfect_streams()
    with pytest.raises(ValueError) as err:
        ref_steady_outlets(InletConditions(350.0, 350.0, 1.0, 1.0), 1000.0, hot, cold)
    assert str(err.value) == FORWARD_DUTY_MESSAGE.format(350.0, 350.0)


def test_steady_rejects_reversed_duty():
    # every input boundary rejects a hot intake at or below the cold one,
    # so the steady problem is posed for forward duty only
    hot, cold = perfect_streams(1000.0, 2000.0)
    with pytest.raises(ValueError) as err:
        ref_steady_outlets(InletConditions(300.0, 400.0, 1.0, 1.0), 1000.0, hot, cold)
    assert str(err.value) == FORWARD_DUTY_MESSAGE.format(300.0, 400.0)


def test_steady_high_ntu_pinch():
    # Large kA drives the hot outlet toward the cold intake.  Above
    # kA = 2 W_h W_c / (W_c - W_h) the outer bracket must be capped at
    # the energy-feasibility boundary or a spurious root appears.
    hot, cold = perfect_streams(1000.0, 1000.0)
    u = InletConditions(400.0, 300.0, 1.0, 2.0)
    for kA in (5000.0, 2.0e4):
        outs = ref_steady_outlets(u, kA, hot, cold)
        oracle = effectiveness_counterflow(1000.0, 2000.0, kA, 400.0, 300.0)
        assert outs.T_h2 == pytest.approx(oracle.T_h2, abs=1e-5)
        assert outs.T_c2 == pytest.approx(oracle.T_c2, abs=1e-5)
        assert outs.T_h2 > 300.0


def test_steady_absurd_ntu_raises():
    # NTU = 1000: the pinch gap underflows double precision, so there is
    # no representable root and the solver reports that honestly.
    hot, cold = perfect_streams(1000.0, 1000.0)
    u = InletConditions(400.0, 300.0, 1.0, 2.0)
    with pytest.raises(NoSolutionError):
        ref_steady_outlets(u, 1.0e6, hot, cold)


def test_steady_rejects_nonpositive_kA():
    hot, cold = perfect_streams()
    with pytest.raises(ValueError):
        ref_steady_outlets(InletConditions(400.0, 300.0, 1.0, 1.0), 0.0, hot, cold)


# ---------------------------------------------------------------------------
# Steady wall temperatures


def test_steady_wall_temps_worked_example():
    # w = aA_c/(aA_h + aA_c) = 3000/4000 = 0.75:
    # T_w1s = 400 + 0.75*(340 - 400) = 355 K
    # T_w2s = 330 + 0.75*(300 - 330) = 307.5 K
    walls = steady_wall_temps(
        OutletTemps(T_h2=330.0, T_c2=340.0),
        InletConditions(400.0, 300.0, 1.0, 1.0),
        Conductances(1000.0, 3000.0),
    )
    assert walls.T_w1 == pytest.approx(355.0, abs=1e-12)
    assert walls.T_w2 == pytest.approx(307.5, abs=1e-12)


def test_steady_wall_flux_identities():
    # At the closed-form wall temperatures the serial rating and the two
    # side ratings agree on the heat rate (rs3 = rs4 = 0 up to roundoff).
    hot, cold = perfect_streams(1500.0, 2500.0)
    u = InletConditions(430.0, 290.0, 1.3, 0.9)
    cond = Conductances(1800.0, 3100.0)
    outs = ref_steady_outlets(u, cond.kA, hot, cold)
    walls = steady_wall_temps(outs, u, cond)
    q = heat_rate(u.T_h1 - outs.T_c2, outs.T_h2 - u.T_c1, cond.kA)
    q_hot_side = heat_rate(u.T_h1 - walls.T_w1, outs.T_h2 - walls.T_w2, cond.aA_h)
    q_cold_side = heat_rate(walls.T_w1 - outs.T_c2, walls.T_w2 - u.T_c1, cond.aA_c)
    assert abs(q - q_hot_side) < 1e-6
    assert abs(q - q_cold_side) < 1e-6


def test_ref_output_at_steady_walls_reproduces_steady_outlets():
    for streams, u, cond in [
        (perfect_streams(1000.0, 2000.0),
         InletConditions(400.0, 300.0, 1.0, 1.0), Conductances(1500.0, 3000.0)),
        (co2_streams(),
         InletConditions(390.0, 300.0, 30.0, 41.0), Conductances(5.5e4, 6.5e4)),
    ]:
        hot, cold = streams
        outs_s = ref_steady_outlets(u, cond.kA, hot, cold)
        walls_s = steady_wall_temps(outs_s, u, cond)
        outs = ref_output(walls_s, u, cond, hot, cold)
        assert outs.T_h2 == pytest.approx(outs_s.T_h2, abs=1e-5)
        assert outs.T_c2 == pytest.approx(outs_s.T_c2, abs=1e-5)


# ---------------------------------------------------------------------------
# Uniqueness verification


def test_verify_uniqueness_constant_cp():
    hot, cold = perfect_streams(1000.0, 2000.0)
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    report = verify_uniqueness(u, Conductances(1500.0, 3000.0), hot, cold, grid_n=150)
    assert report.sign_changes == 1
    assert report.monotone_hot and report.monotone_cold
    assert abs(report.rs3_residual) < 1e-6
    assert abs(report.rs4_residual) < 1e-6
    assert report.passed


def test_verify_uniqueness_nonlinear_fluid():
    hot, cold = co2_streams()
    u = InletConditions(390.0, 300.0, 30.0, 41.0)
    report = verify_uniqueness(u, Conductances(5.5e4, 6.5e4), hot, cold, grid_n=120)
    assert report.passed


def test_verify_uniqueness_grid_floor():
    hot, cold = perfect_streams()
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        verify_uniqueness(u, Conductances(1000.0, 1000.0), hot, cold, grid_n=99)


@pytest.mark.parametrize("T_h1, T_c1", [(350.0, 350.0), (300.0, 400.0)])
def test_verify_uniqueness_rejects_equal_and_reversed_intakes(T_h1, T_c1):
    hot, cold = perfect_streams()
    u = InletConditions(T_h1, T_c1, 1.0, 1.0)
    with pytest.raises(ValueError) as err:
        verify_uniqueness(u, Conductances(1000.0, 1000.0), hot, cold, grid_n=100)
    assert str(err.value) == FORWARD_DUTY_MESSAGE.format(T_h1, T_c1)


# ---------------------------------------------------------------------------
# Properties of the output equations


PROPERTY_STREAMS = {
    "perfect": StreamConfig(CaloricallyPerfect(4180.0), 1e5),
    "polynomial": StreamConfig(make_coolant_model(), 5e5),
    "table": StreamConfig(make_co2_like_table(), 1e7),
}
flows = st.floats(-2.0, 5.0).map(lambda e: 10.0 ** e)
conductances = st.floats(0.0, 5.0).map(lambda e: 10.0 ** e)
states = st.tuples(
    st.sampled_from(list(PROPERTY_STREAMS)), st.sampled_from(list(PROPERTY_STREAMS)),
    st.floats(280.0, 330.0), st.floats(0.5, 90.0),  # T_c1, T_h1 - T_c1
    st.floats(0.01, 0.99), st.floats(0.01, 0.99),  # the walls' places between the inlets
    flows, flows, conductances, conductances,  # mdot_h, mdot_c, aA_h, aA_c
    st.one_of(st.none(), st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2))))


def property_case(case):
    """(hot, cold, x, u, cond, guess) of a drawn state: walls strictly
    between the inlets, flows over seven decades and conductances over
    five, and no guess or one from 20 % below to 20 % above the inlet
    span."""
    hot, cold, T_c1, span, f1, f2, mdot_h, mdot_c, aA_h, aA_c, guess = case
    T_h1 = T_c1 + span
    x = WallState(T_c1 + f1 * span, T_c1 + f2 * span)
    if guess is not None:
        guess = OutletTemps(T_c1 + guess[0] * span, T_c1 + guess[1] * span)
    return (PROPERTY_STREAMS[hot], PROPERTY_STREAMS[cold], x,
            InletConditions(T_h1, T_c1, mdot_h, mdot_c), Conductances(aA_h, aA_c), guess)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=states)
def test_side_residuals_increase_strictly_over_their_brackets(case):
    hot, cold, x, u, cond, _ = property_case(case)
    for side in sides(x, u, cond, hot, cold):
        lo, hi = side[5:7]
        a, b = lo + 1e-7 * (hi - lo), hi - 1e-7 * (hi - lo)  # the solver's open bracket
        residual = reference_model._side_residual(*side)
        values = [residual(a + (b - a) * k / 63) for k in range(64)]
        assert all(v < w for v, w in zip(values, values[1:])), side


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=states)
def test_ref_output_closes_each_side_energy_balance(case):
    # where the residual changes sign inside the bracket; elsewhere (a
    # tiny flow against a large conductance) the solve clamps to an end
    hot, cold, x, u, cond, guess = property_case(case)
    outlets = ref_output(x, u, cond, hot, cold, guess=guess)
    info = ref_output_detailed(x, u, cond, hot, cold, guess=guess)[1]
    for side, T, flagged in zip(sides(x, u, cond, hot, cold),
                                (outlets.T_h2, outlets.T_c2),
                                (info.flagged_hot, info.flagged_cold)):
        lo, hi = side[5:7]
        a, b = lo + 1e-7 * (hi - lo), hi - 1e-7 * (hi - lo)
        residual = reference_model._side_residual(*side)
        if residual(a) < 0.0 < residual(b):
            assert closes_or_is_next_to_root(residual, T) and not flagged, (side, T)
        else:
            assert T in (lo, hi), (side, T)


def changes_sign_inside(side):
    """Whether a side residual changes sign inside the solver's open
    bracket, so that the side has an interior root."""
    lo, hi = side[5:7]
    residual = reference_model._side_residual(*side)
    return residual(lo + 1e-7 * (hi - lo)) < 0.0 < residual(hi - 1e-7 * (hi - lo))


predictor_cases = st.tuples(
    st.sampled_from(list(PROPERTY_STREAMS)), st.sampled_from(list(PROPERTY_STREAMS)),
    st.floats(280.0, 330.0), st.floats(10.0, 90.0),  # T_c1, T_h1 - T_c1
    st.floats(0.05, 0.95), st.floats(0.05, 0.95),  # the walls' places between the inlets
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),  # the wall steps, K
    st.floats(-1.0, 2.0).map(lambda e: 10.0 ** e), st.floats(-1.0, 2.0).map(lambda e: 10.0 ** e),
    st.floats(2.0, 5.0).map(lambda e: 10.0 ** e), st.floats(2.0, 5.0).map(lambda e: 10.0 ** e))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=predictor_cases)
def test_tangent_predicted_side_solve_closes_as_the_unpredicted_one(case):
    # Each side's root at walls x0, solved again from itself so the
    # Newton path gives its tangent, then the side at x0 plus a wall step
    # of up to 1 K, from that root moved along the tangent and from the
    # root alone: both close, unflagged, on the same root.  Walls at
    # least 5 % of a span of 10 K or more from the inlets keep the step
    # inside the brackets.  Only sides whose residual changes sign inside
    # the bracket at both walls are solved (the others clamp to an end,
    # flagged, on either start); "close" is closes_or_is_next_to_root,
    # since next to a bracket end the log mean's slope can put OUTPUT_FTOL
    # below one ulp of T.
    hot, cold, T_c1, span, f1, f2, d1, d2, mdot_h, mdot_c, aA_h, aA_c = case
    hot, cold = PROPERTY_STREAMS[hot], PROPERTY_STREAMS[cold]
    u = InletConditions(T_c1 + span, T_c1, mdot_h, mdot_c)
    cond = Conductances(aA_h, aA_c)
    x0 = WallState(T_c1 + f1 * span, T_c1 + f2 * span)
    x1 = WallState(x0.T_w1 + d1, x0.T_w2 + d2)
    outlets = ref_output(x0, u, cond, hot, cold)
    for side0, side1, T0 in zip(sides(x0, u, cond, hot, cold), sides(x1, u, cond, hot, cold),
                                (outlets.T_h2, outlets.T_c2)):
        if not all(changes_sign_inside(side) for side in (side0, side1)):
            continue
        T, r, flagged, _, t1, t2 = reference_model._solve_side(*side0, T0)
        assert T == T0 and not flagged and (t1, t2) != (0.0, 0.0)
        predicted = reference_model._solve_side(*side1, T0 + (t1 * d1 + t2 * d2))
        unpredicted = reference_model._solve_side(*side1, T0)
        residual = reference_model._side_residual(*side1)
        for T, r, flagged in (predicted[:3], unpredicted[:3]):
            assert closes_or_is_next_to_root(residual, T) and not flagged, (side1, T, r)
        assert abs(predicted[0] - unpredicted[0]) <= 1e-9, (side1, predicted, unpredicted)


# ---------------------------------------------------------------------------
# Validation dataclasses


def test_conductance_validation_and_serial():
    cond = Conductances(1000.0, 3000.0)
    assert cond.kA == pytest.approx(750.0, rel=1e-14)
    with pytest.raises(ValueError):
        Conductances(-1.0, 100.0)
