"""Tests for the sector-based wall temperature dynamics."""

import math

import pytest

from hxtwin.fluids import CaloricallyPerfect, StreamConfig
from hxtwin.means import heat_rate
from hxtwin.reference_model import (
    Conductances,
    InletConditions,
    WallState,
    ref_output,
    ref_steady_outlets,
    steady_wall_temps,
)
from hxtwin.wall_dynamics import (
    TDW_LOWER_BOUND,
    ApproxStage,
    Sector,
    WallDynamicsConfig,
    integrate_step,
    reference_wall_rhs,
    rk4_pair,
    sector_gain,
)
from hxtwin.approx_model import CpParams, steady_terms
from oracles import rhs_rows, wall_drift_rate


CFG = WallDynamicsConfig(theta7=1000.0)


def perfect_streams(cp_h=1000.0, cp_c=2000.0):
    return (
        StreamConfig(CaloricallyPerfect(cp_h), 1.0e6),
        StreamConfig(CaloricallyPerfect(cp_c), 5.0e5),
    )


# ---------------------------------------------------------------------------
# Sector classification and rates


def test_classify_sector_table():
    # sector_gain decides the sector, with SECTOR_V_EPSILON = 1e-9 K
    assert sector_gain(2.0, 4.0, 1.0)[0] is Sector.I
    assert sector_gain(-3.0, -1.0, 1.0)[0] is Sector.III
    assert sector_gain(-3.0, 4.0, 1.0)[0] is Sector.II
    assert sector_gain(3.0, -4.0, 1.0)[0] is Sector.IV
    assert sector_gain(0.0, 0.0, 1.0)[0] is Sector.V
    assert sector_gain(5e-10, -5e-10, 1.0)[0] is Sector.V
    # ties on the axes join the same-sign sectors
    assert sector_gain(0.0, 4.0, 1.0)[0] is Sector.I
    assert sector_gain(4.0, 0.0, 1.0)[0] is Sector.I
    assert sector_gain(0.0, -4.0, 1.0)[0] is Sector.III
    assert sector_gain(-4.0, 0.0, 1.0)[0] is Sector.III


def test_wall_drift_rate_sign_convention():
    # Q_h/Q_c are rates into the fluids: the wall loses what they gain.
    assert wall_drift_rate(-4000.0, 1000.0, 1000.0) == pytest.approx(3.0)
    assert wall_drift_rate(500.0, 500.0, 1000.0) == pytest.approx(-1.0)
    assert wall_drift_rate(-200.0, 200.0, 400.0) == 0.0


def sector_rates(x, xs, Q_h, Q_c, cfg=CFG):
    """The wall rates a * e at the gain of sector_gain, e = xs - x, and the
    active sector."""
    e1, e2 = xs.T_w1 - x.T_w1, xs.T_w2 - x.T_w2
    sector, a = sector_gain(e1, e2, wall_drift_rate(Q_h, Q_c, cfg.theta7))
    return (a * e1, a * e2), sector


def test_wall_rhs_sector_i_worked_example():
    # e = (2, 4), Tdot_w = (4000 - 1000)/1000 = 3 K/s,
    # a = 2*3/(2+4) = 1 -> xdot = (2, 4): the mean matches the drift.
    x = WallState(350.0, 340.0)
    xs = WallState(352.0, 344.0)
    rate, sector = sector_rates(x, xs, -4000.0, 1000.0)
    assert sector is Sector.I
    assert rate[0] == pytest.approx(2.0, rel=1e-12)
    assert rate[1] == pytest.approx(4.0, rel=1e-12)
    assert 0.5 * (rate[0] + rate[1]) == pytest.approx(3.0, rel=1e-12)


def test_wall_rhs_sector_ii_worked_example():
    # e = (-3, 4), |Tdot_w| = 1, ||e|| = 5, a = 2*1/5 = 0.4
    # -> xdot = (-1.2, 1.6): direction from e, magnitude from the drift.
    x = WallState(355.0, 336.0)
    xs = WallState(352.0, 340.0)
    rate, sector = sector_rates(x, xs, -2000.0, 1000.0)
    assert sector is Sector.II
    assert rate[0] == pytest.approx(-1.2, rel=1e-12)
    assert rate[1] == pytest.approx(1.6, rel=1e-12)
    assert math.hypot(*rate) == pytest.approx(2.0, rel=1e-12)


def test_wall_rhs_sector_iii_mirrors():
    x = WallState(354.0, 348.0)
    xs = WallState(352.0, 344.0)  # e = (-2, -4)
    rate, sector = sector_rates(x, xs, 2000.0, 1000.0)  # Tdot_w = -3
    assert sector is Sector.III
    assert rate[0] == pytest.approx(-2.0, rel=1e-12)
    assert rate[1] == pytest.approx(-4.0, rel=1e-12)


def test_wall_rhs_sector_v_freezes():
    x = WallState(352.0, 344.0)
    xs = WallState(352.0 + 1e-10, 344.0 - 1e-10)
    rate, sector = sector_rates(x, xs, -4000.0, 1000.0)
    assert sector is Sector.V
    assert rate == (0.0, 0.0)


def test_wall_rhs_drift_floor_in_sector_iv():
    # Vanishing drift still produces a floored pull toward the target.
    x = WallState(349.0, 344.0)
    xs = WallState(352.0, 340.0)  # e = (3, -4), sector IV
    rate, sector = sector_rates(x, xs, -100.0, 100.0)  # Tdot_w = 0
    assert sector is Sector.IV
    a = 2.0 * TDW_LOWER_BOUND / 5.0
    assert rate[0] == pytest.approx(a * 3.0, rel=1e-12)
    assert rate[1] == pytest.approx(a * -4.0, rel=1e-12)


# Heat rates linear in the wall state, so that central differences of
# the wall rates are exact up to rounding away from sector boundaries.
XS = WallState(352.0, 340.0)
STILL_XS = ((0.0, 0.0), (0.0, 0.0))  # steady walls that do not move with the walls


def wall_rhs_rows(x, xs, Q_h, Q_c, dQ_h, dQ_c, dxs):
    """d(a * e)/dz at x by rhs_rows, given the heat rates and their
    partials and those of the steady walls over z = (T_w1, T_w2, ...)."""
    e1, e2 = xs.T_w1 - x.T_w1, xs.T_w2 - x.T_w2
    tdw = wall_drift_rate(Q_h, Q_c, CFG.theta7)
    return rhs_rows(e1, e2, *sector_gain(e1, e2, tdw), tdw, dQ_h, dQ_c, CFG.theta7, dxs)


def linear_heat_rates(q_h, q_c, dQ_h, dQ_c):
    def rates(x):
        d1, d2 = x.T_w1 - XS.T_w1, x.T_w2 - XS.T_w2
        return q_h + dQ_h[0] * d1 + dQ_h[1] * d2, q_c + dQ_c[0] * d1 + dQ_c[1] * d2
    return rates


@pytest.mark.parametrize("offset, sector", [
    ((-2.0, -3.0), Sector.I),
    ((1.0, -4.0), Sector.II),
    ((2.5, 1.5), Sector.III),
    ((-3.0, 4.0), Sector.IV),
])
@pytest.mark.parametrize("q_h, q_c", [(-4000.0, 1000.0), (2000.0, 1000.0), (-1000.0, 999.0)])
def test_wall_rhs_jacobian_matches_central_differences(offset, sector, q_h, q_c):
    dQ_h, dQ_c = (120.0, -30.0), (45.0, 210.0)
    rates = linear_heat_rates(q_h, q_c, dQ_h, dQ_c)
    x = WallState(XS.T_w1 + offset[0], XS.T_w2 + offset[1])
    assert sector_gain(XS.T_w1 - x.T_w1, XS.T_w2 - x.T_w2, 0.0)[0] is sector

    def rhs(w1, w2):
        wall = WallState(w1, w2)
        return sector_rates(wall, XS, *rates(wall))[0]

    h = 1e-5
    columns = [
        [(p - m) / (2.0 * h) for p, m in zip(rhs(x.T_w1 + h, x.T_w2), rhs(x.T_w1 - h, x.T_w2))],
        [(p - m) / (2.0 * h) for p, m in zip(rhs(x.T_w1, x.T_w2 + h), rhs(x.T_w1, x.T_w2 - h))],
    ]
    J = wall_rhs_rows(x, XS, *rates(x), dQ_h, dQ_c, STILL_XS)
    scale = max(abs(v) for row in J for v in row)
    for i in range(2):
        for j in range(2):
            assert J[i][j] == pytest.approx(columns[j][i], abs=1e-7 * scale)


def test_wall_rhs_jacobian_floor_has_no_drift_slope():
    # Below the floor, sectors II/IV pull at the floored speed: only the
    # direction of e moves with x, whatever the heat-rate partials.
    x = WallState(349.0, 344.0)  # e = (3, -4), sector IV
    J = wall_rhs_rows(x, XS, -100.0, 100.0, (500.0, 7.0), (-3.0, 80.0), STILL_XS)
    a = 2.0 * TDW_LOWER_BOUND / 5.0
    grad_a = (a * 3.0 / 25.0, a * -4.0 / 25.0)
    assert J[0] == pytest.approx((3.0 * grad_a[0] - a, 3.0 * grad_a[1]), rel=1e-12)
    assert J[1] == pytest.approx((-4.0 * grad_a[0], -4.0 * grad_a[1] - a), rel=1e-12)


def test_wall_rhs_jacobian_sector_v_is_the_axis_limit():
    dQ_h, dQ_c = (120.0, -30.0), (45.0, 210.0)
    J = wall_rhs_rows(XS, XS, -100.0, 100.0, dQ_h, dQ_c, STILL_XS)
    assert J == (
        [2.0 * wall_drift_rate(dQ_h[0], dQ_c[0], CFG.theta7), 0.0],
        [0.0, 2.0 * wall_drift_rate(dQ_h[1], dQ_c[1], CFG.theta7)],
    )


@pytest.mark.parametrize("offset, sector", [
    ((-2.0, -3.0), Sector.I),
    ((1.0, -4.0), Sector.II),
    ((2.5, 1.5), Sector.III),
    ((-3.0, 4.0), Sector.IV),
])
@pytest.mark.parametrize("q_h, q_c", [(-4000.0, 1000.0), (2000.0, 1000.0), (-100.0, 100.0)])
def test_wall_rhs_jacobian_columns_beyond_the_walls(offset, sector, q_h, q_c):
    # z = (T_w1, T_w2, q, s): q moves the heat rates only, s moves the
    # steady walls along (0.5, -1) only
    dQ_h, dQ_c = (120.0, -30.0, 7.0, 0.0), (45.0, 210.0, -3.0, 0.0)
    dxs = ((0.0, 0.0, 0.0, 0.5), (0.0, 0.0, 0.0, -1.0))

    def heat_rates(z):
        d = (z[0] - XS.T_w1, z[1] - XS.T_w2, z[2], 0.0)
        return (q_h + sum(p * v for p, v in zip(dQ_h, d)),
                q_c + sum(p * v for p, v in zip(dQ_c, d)))

    def rhs(z):
        xs = WallState(XS.T_w1 + 0.5 * z[3], XS.T_w2 - z[3])
        return sector_rates(WallState(z[0], z[1]), xs, *heat_rates(z))[0]

    z = [XS.T_w1 + offset[0], XS.T_w2 + offset[1], 0.0, 0.0]
    x = WallState(z[0], z[1])
    assert sector_gain(XS.T_w1 - x.T_w1, XS.T_w2 - x.T_w2, 0.0)[0] is sector
    h = 1e-5
    columns = []
    for j in range(4):
        zp, zm = list(z), list(z)
        zp[j] += h
        zm[j] -= h
        columns.append([(p - m) / (2.0 * h) for p, m in zip(rhs(zp), rhs(zm))])
    J = wall_rhs_rows(x, XS, *heat_rates(z), dQ_h, dQ_c, dxs)
    scale = max(abs(v) for row in J for v in row)
    for i in range(2):
        for j in range(4):
            assert J[i][j] == pytest.approx(columns[j][i], abs=1e-7 * scale)


def test_wall_rhs_jacobian_sector_v_has_zero_columns_beyond_the_walls():
    # In the dead band the rates are zero whatever the heat rates, and a
    # move of xs alone along an axis gives the same rate either way.
    dQ_h, dQ_c = (120.0, -30.0, 7.0, 0.0), (45.0, 210.0, -3.0, 0.0)
    dxs = ((0.0, 0.0, 0.0, 0.5), (0.0, 0.0, 0.0, -1.0))
    J = wall_rhs_rows(XS, XS, -100.0, 100.0, dQ_h, dQ_c, dxs)
    assert J == (
        [2.0 * wall_drift_rate(dQ_h[0], dQ_c[0], CFG.theta7), 0.0, 0.0, 0.0],
        [0.0, 2.0 * wall_drift_rate(dQ_h[1], dQ_c[1], CFG.theta7), 0.0, 0.0],
    )
    for e in ((1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)):
        xs = WallState(XS.T_w1 + e[0], XS.T_w2 + e[1])
        assert sector_rates(XS, xs, -100.0, 100.0)[0] == sector_rates(
            XS, WallState(XS.T_w1 - e[0], XS.T_w2 - e[1]), -100.0, 100.0)[0]


def test_config_validation():
    with pytest.raises(ValueError):
        WallDynamicsConfig(theta7=0.0)
    with pytest.raises(ValueError):
        WallDynamicsConfig(theta7=1.0, substeps_per_sample=0)
    with pytest.raises(TypeError):  # the tolerances are module constants
        WallDynamicsConfig(theta7=1.0, sector_v_epsilon=1e-6)


# ---------------------------------------------------------------------------
# Integrator


def test_integrate_step_rk4_order():
    # Linear decay toward (1, -1): global error scales like h^4.
    lam = 1.3

    def rhs(w1: float, w2: float) -> tuple[float, float]:
        return lam * (1.0 - w1), lam * (-1.0 - w2)

    x0 = WallState(3.0, 2.0)
    t = 1.0
    exact1 = 1.0 + (3.0 - 1.0) * math.exp(-lam * t)
    err = {}
    for sub in (2, 20):
        out = integrate_step(rhs, x0, t, sub)
        err[sub] = abs(out.T_w1 - exact1)
    # tenfold substeps: error drops by ~1e4
    assert err[2] / err[20] > 1.0e3
    assert err[20] < 1e-6


def test_rk4_pair_is_the_fourth_order_taylor_step_of_a_linear_ode():
    # On xdot = a x one RK4 step multiplies x by 1 + z + z^2/2 + z^3/6 +
    # z^4/24, z = a h, and it reads rhs only at the three later stages.
    calls = []

    def rhs(w1: float, w2: float) -> tuple[float, float]:
        calls.append((w1, w2))
        return -w1, -2.0 * w2

    h = 0.1
    out = rk4_pair(rhs, 1.0, 1.0, h, (-1.0, -2.0))
    assert len(calls) == 3
    for value, z in zip(out, (-h, -2.0 * h)):
        assert value == pytest.approx(1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24, rel=1e-15)


def test_integrate_step_edge_cases():
    def rhs(w1: float, w2: float):
        return 1.0, -1.0

    x0 = WallState(300.0, 310.0)
    assert integrate_step(rhs, x0, 0.0, 10) == x0
    out = integrate_step(rhs, x0, 2.0, 4)
    assert out.T_w1 == pytest.approx(302.0, rel=1e-12)
    assert out.T_w2 == pytest.approx(308.0, rel=1e-12)
    # a negative or non-finite dt would return walls without an error
    for dt in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            integrate_step(rhs, x0, dt, 10)


# ---------------------------------------------------------------------------
# Model-coupled right-hand sides


def steady_setup():
    hot, cold = perfect_streams()
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    cond = Conductances(1500.0, 3000.0)
    steady = ref_steady_outlets(u, cond.kA, hot, cold)
    xs = steady_wall_temps(steady, u, cond)
    return hot, cold, u, cond, xs


def test_reference_rhs_matches_manual_assembly():
    hot, cold, u, cond, xs = steady_setup()
    cfg = WallDynamicsConfig(theta7=2000.0)
    rhs = reference_wall_rhs(u, cond, hot, cold, cfg)
    x = WallState(xs.T_w1 + 2.0, xs.T_w2 + 3.0)
    outs = ref_output(x, u, cond, hot, cold)
    Q_h = -heat_rate(u.T_h1 - x.T_w1, outs.T_h2 - x.T_w2, cond.aA_h)
    Q_c = heat_rate(x.T_w1 - outs.T_c2, x.T_w2 - u.T_c1, cond.aA_c)
    manual = sector_rates(x, xs, Q_h, Q_c, cfg)[0]
    assert rhs(x.T_w1, x.T_w2) == pytest.approx(manual, rel=1e-12)


def test_reference_rhs_zero_at_steady_state():
    hot, cold, u, cond, xs = steady_setup()
    rhs = reference_wall_rhs(u, cond, hot, cold, WallDynamicsConfig(theta7=2000.0))
    rate = rhs(xs.T_w1, xs.T_w2)
    assert max(abs(rate[0]), abs(rate[1])) < 1e-4


def test_reference_relaxation_monotone_to_steady():
    hot, cold, u, cond, xs = steady_setup()
    cfg = WallDynamicsConfig(theta7=2000.0)
    rhs = reference_wall_rhs(u, cond, hot, cold, cfg)
    for dx in ((4.0, 4.0), (-4.0, -4.0), (2.0, 5.0)):
        x = WallState(xs.T_w1 + dx[0], xs.T_w2 + dx[1])
        norms = [math.hypot(x.T_w1 - xs.T_w1, x.T_w2 - xs.T_w2)]
        for _ in range(60):
            x = integrate_step(rhs, x, 0.5, cfg.substeps_per_sample)
            norms.append(math.hypot(x.T_w1 - xs.T_w1, x.T_w2 - xs.T_w2))
            if norms[-1] < 0.01:
                break
        assert norms[-1] < 0.01
        assert all(b < a for a, b in zip(norms, norms[1:]))


def test_mixed_sector_contracts_but_crawls():
    # Sector II/IV motion is radial (xdot parallel to e), so a start near
    # the zero-net-flux manifold contracts monotonically yet slowly: the
    # drift magnitude vanishes there and only the floor keeps it moving.
    hot, cold, u, cond, xs = steady_setup()
    cfg = WallDynamicsConfig(theta7=2000.0)
    rhs = reference_wall_rhs(u, cond, hot, cold, cfg)
    x = WallState(xs.T_w1 + 3.0, xs.T_w2 - 2.0)
    norms = [math.hypot(x.T_w1 - xs.T_w1, x.T_w2 - xs.T_w2)]
    for _ in range(60):
        x = integrate_step(rhs, x, 0.5, cfg.substeps_per_sample)
        norms.append(math.hypot(x.T_w1 - xs.T_w1, x.T_w2 - xs.T_w2))
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.6 * norms[0]
    assert norms[-1] > 0.01  # stalls at the flux-balance manifold


def test_approx_rhs_agrees_with_reference_near_steady():
    hot, cold, u, cond, xs = steady_setup()
    cfg = WallDynamicsConfig(theta7=2000.0)
    cp = CpParams(1000.0, 2000.0, 1000.0, 2000.0)
    r_ref = reference_wall_rhs(u, cond, hot, cold, cfg)
    terms = (cond.aA_h, cond.aA_c, u.mdot_c, *steady_terms(
        u.T_h1, u.T_c1, u.mdot_h * cp.theta5, u.mdot_c * cp.theta6, cond.aA_h, cond.aA_c))
    r_apx = ApproxStage(u, cp, terms, cfg).rates
    w = (xs.T_w1 + 1.5, xs.T_w2 + 1.5)
    a, b = r_ref(*w), r_apx(*w)
    assert a[0] == pytest.approx(b[0], rel=0.05)
    assert a[1] == pytest.approx(b[1], rel=0.05)
    # and the approximate steady state is the same fixed point
    x_run = WallState(xs.T_w1 - 3.0, xs.T_w2 - 3.0)
    for _ in range(40):
        x_run = integrate_step(r_apx, x_run, 0.5, cfg.substeps_per_sample)
    assert x_run.T_w1 == pytest.approx(xs.T_w1, abs=0.01)
    assert x_run.T_w2 == pytest.approx(xs.T_w2, abs=0.01)
