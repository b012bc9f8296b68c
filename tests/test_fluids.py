"""Tests for the fluid enthalpy models and the table file format."""

import io
import math
from pathlib import Path

import pytest

from hxtwin.fluids import (
    CaloricallyPerfect,
    NonMonotonicAxisError,
    OutOfRangeError,
    ParseError,
    StreamConfig,
    Tabulated,
    ThermallyPerfect,
    load_fluid_table,
    save_fluid_table,
)
from hxtwin.sampledata import co2_like_enthalpy, make_co2_like_table, make_coolant_model

ROOT = Path(__file__).resolve().parent.parent


def small_table():
    T = [280.0, 300.0, 320.0]
    p = [1.0e6, 2.0e6]
    h = [[c * T_ + 10.0 * (p_ / 1e6) for p_ in p] for T_, c in zip(T, [1000.0, 1000.0, 1000.0])]
    return Tabulated(T, p, h)


# ---------------------------------------------------------------------------
# Calorically perfect


def test_perfect_enthalpy_and_mean_cp():
    f = CaloricallyPerfect(2300.0)
    assert f.enthalpy(350.0, 1e5) == 2300.0 * 350.0
    assert f.mean_specific_heat(300.0, 400.0, 1e5) == 2300.0
    assert f.mean_specific_heat(333.0, 333.0, 1e5) == 2300.0


def test_perfect_rejects_nonpositive_cp():
    with pytest.raises(ValueError):
        CaloricallyPerfect(0.0)


# ---------------------------------------------------------------------------
# Thermally perfect, polynomial cp


def test_poly_mean_cp_closed_form():
    # cp(T) = 2800 + 2 T  ->  mean cp over [T1, T2] = 2800 + (T1 + T2)
    f = ThermallyPerfect(cp_coeffs=(2800.0, 2.0), hull_T=(200.0, 600.0))
    for t1, t2 in [(300.0, 400.0), (250.0, 580.0), (510.0, 215.0)]:
        expect = 2800.0 + (t1 + t2)
        assert f.mean_specific_heat(t1, t2, 1e5) == pytest.approx(expect, rel=1e-13)


def test_poly_enthalpy_difference_is_integral():
    # Exact integral of 100 + 0.5 T + 0.003 T^2 between two temperatures.
    f = ThermallyPerfect(cp_coeffs=(100.0, 0.5, 0.003), hull_T=(200.0, 600.0))
    t1, t2 = 260.0, 480.0

    def antideriv(t):
        return 100.0 * t + 0.25 * t * t + 0.001 * t**3

    got = f.enthalpy(t2, 1e5) - f.enthalpy(t1, 1e5)
    assert got == pytest.approx(antideriv(t2) - antideriv(t1), rel=1e-12)
    # h = 0 at the lower hull edge
    assert f.enthalpy(200.0, 1e5) == 0.0
    assert f.enthalpy(t1, 1e5) == pytest.approx(antideriv(t1) - antideriv(200.0), rel=1e-12)


def test_poly_point_cp_from_degenerate_secant():
    f = ThermallyPerfect(cp_coeffs=(2800.0, 2.0), hull_T=(200.0, 600.0))
    # Centered differences are exact for a quadratic enthalpy.
    assert f.mean_specific_heat(350.0, 350.0, 1e5) == pytest.approx(
        2800.0 + 2.0 * 350.0, rel=1e-9
    )


def test_poly_point_cp_at_hull_edge_shifts_stencil():
    f = ThermallyPerfect(cp_coeffs=(2800.0, 2.0), hull_T=(200.0, 600.0))
    got = f.mean_specific_heat(200.0, 200.0, 1e5)
    # Stencil shifted inward to [200, 200.02]: secant of the quadratic
    # equals cp at the midpoint 200.01.
    assert got == pytest.approx(2800.0 + 2.0 * 200.01, rel=1e-9)


def test_poly_secant_symmetry():
    f = ThermallyPerfect(cp_coeffs=(900.0, 0.4), hull_T=(200.0, 600.0))
    assert f.mean_specific_heat(300.0, 450.0, 1e5) == f.mean_specific_heat(
        450.0, 300.0, 1e5
    )


def test_poly_nonpositive_cp_rejected():
    with pytest.raises(ValueError):
        ThermallyPerfect(cp_coeffs=(100.0, -1.0), hull_T=(150.0, 400.0))


def test_poly_out_of_hull():
    f = ThermallyPerfect(cp_coeffs=(1000.0,), hull_T=(250.0, 500.0))
    with pytest.raises(OutOfRangeError):
        f.enthalpy(249.0, 1e5)
    with pytest.raises(OutOfRangeError):
        f.enthalpy(501.0, 1e5)


# ---------------------------------------------------------------------------
# Tabulated h(T, p)


def test_bilinear_matches_grid_nodes():
    f = small_table()
    assert f.enthalpy(300.0, 2.0e6) == pytest.approx(1000.0 * 300.0 + 20.0, rel=1e-14)


def test_bilinear_cell_center_is_corner_average():
    T = [280.0, 300.0]
    p = [1.0e6, 2.0e6]
    h = [[1.0, 5.0], [3.0, 11.0]]
    f = Tabulated(T, p, h)
    assert f.enthalpy(290.0, 1.5e6) == pytest.approx((1.0 + 5.0 + 3.0 + 11.0) / 4.0)


def test_bilinear_general_point_oracle():
    T = [280.0, 300.0]
    p = [1.0e6, 2.0e6]
    h = [[2.0, 8.0], [4.0, 20.0]]
    f = Tabulated(T, p, h)
    tt = (287.0 - 280.0) / 20.0
    pp = (1.3e6 - 1.0e6) / 1.0e6
    expect = (
        (1 - tt) * (1 - pp) * 2.0 + (1 - tt) * pp * 8.0
        + tt * (1 - pp) * 4.0 + tt * pp * 20.0
    )
    assert f.enthalpy(287.0, 1.3e6) == pytest.approx(expect, rel=1e-14)


def test_tabulated_out_of_range():
    f = small_table()
    with pytest.raises(OutOfRangeError):
        f.enthalpy(279.9, 1.5e6)
    with pytest.raises(OutOfRangeError):
        f.enthalpy(300.0, 2.1e6)


def test_slice_enthalpy_equals_bilinear_formula_bit_for_bit():
    f = make_co2_like_table()
    Tg, pg, hg = f.T_grid, f.p_grid, f.h_grid

    def bilinear(T, p, i, j):
        tt = (T - Tg[i]) / (Tg[i + 1] - Tg[i])
        pp = (p - pg[j]) / (pg[j + 1] - pg[j])
        return (
            (1.0 - tt) * ((1.0 - pp) * hg[i][j] + pp * hg[i][j + 1])
            + tt * ((1.0 - pp) * hg[i + 1][j] + pp * hg[i + 1][j + 1])
        )

    n_T, n_p = len(Tg), len(pg)
    # nodes, hull edges and points between nodes, at node and off-node
    # pressures
    temps = [Tg[0] + 0.37 * k for k in range(int((Tg[-1] - Tg[0]) / 0.37) + 1)]
    temps += list(Tg)
    pressures = list(pg) + [pg[0] + 0.29e6 * k for k in range(14)]
    for p in pressures:
        j = min(max(k for k in range(n_p) if pg[k] <= p), n_p - 2)
        for T in temps:
            i = min(max(k for k in range(n_T) if Tg[k] <= T), n_T - 2)
            assert f.enthalpy(T, p) == bilinear(T, p, i, j), (T, p)


def fluid_models():
    """kind -> (model, temperature range to check, table nodes)."""
    coolant, table = make_coolant_model(), make_co2_like_table()
    return {
        "perfect": (CaloricallyPerfect(2300.0), (250.0, 450.0), ()),
        "polynomial": (coolant, coolant.hull_T, ()),
        "table": (table, table.hull_T, table.T_grid),
    }


@pytest.mark.parametrize("kind", ["perfect", "polynomial", "table"])
def test_temperature_inverts_enthalpy(kind):
    f, (lo, hi), nodes = fluid_models()[kind]
    for p in (8.0e6, 1.0e7, 1.07e7, 1.2e7):
        temps = [lo, hi, *nodes] + [lo + (hi - lo) * k / 997.0 for k in range(998)]
        for T in temps:
            back = f.temperature(f.enthalpy(T, p), p)
            assert back == pytest.approx(T, abs=1e-9), (T, p)
        for T in (lo, hi, *nodes):
            # hull edges and table nodes invert exactly
            assert f.temperature(f.enthalpy(T, p), p) == T


@pytest.mark.parametrize("kind", ["perfect", "polynomial", "table"])
def test_enthalpy_slope_is_the_local_derivative(kind):
    f, (lo, hi), nodes = fluid_models()[kind]
    p = 1.0e7
    for k in range(1, 200):
        T = lo + (hi - lo) * (k + 0.5) / 200.0
        if any(abs(T - n) < 1e-3 for n in nodes):
            continue
        step = 1e-4
        secant = (f.enthalpy(T + step, p) - f.enthalpy(T - step, p)) / (2.0 * step)
        assert f.enthalpy_slope(T, p) == pytest.approx(secant, rel=1e-6), T


@pytest.mark.parametrize("kind", ["polynomial", "table"])
def test_temperature_outside_hull_raises(kind):
    f, (lo, hi), _ = fluid_models()[kind]
    p = 1.0e7
    h_lo, h_hi = f.enthalpy(lo, p), f.enthalpy(hi, p)
    for h in (h_lo - 1.0, h_hi + 1.0, math.nan):
        with pytest.raises(OutOfRangeError):
            f.temperature(h, p)
    with pytest.raises(OutOfRangeError):
        f.enthalpy_slope(hi + 1.0, p)


def test_tabulated_rejects_nonmonotone_h_in_T():
    with pytest.raises(ValueError):
        Tabulated([280.0, 300.0], [1e6, 2e6], [[5.0, 6.0], [5.0, 7.0]])


def test_tabulated_rejects_nonmonotone_axes():
    with pytest.raises(NonMonotonicAxisError):
        Tabulated([280.0, 280.0], [1e6, 2e6], [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(NonMonotonicAxisError):
        Tabulated([280.0, 300.0], [2e6, 1e6], [[1.0, 2.0], [3.0, 4.0]])


# ---------------------------------------------------------------------------
# Table file grammar


GOOD_TABLE = """\
# sample enthalpy table
T/K p/Pa h/(J/kg)
T: 280 300    # two T points
p: 1e6 2e6
280000
281000
300000  # inline comment after a value
301000
"""


def test_load_good_table():
    f = load_fluid_table(io.StringIO(GOOD_TABLE))
    assert f.T_grid == (280.0, 300.0)
    assert f.p_grid == (1.0e6, 2.0e6)
    assert f.h_grid == ((280000.0, 281000.0), (300000.0, 301000.0))


def test_load_empty_file():
    with pytest.raises(ParseError) as err:
        load_fluid_table(io.StringIO("\n# only comments\n"))
    assert err.value.line == 1


def test_load_bad_header_line_number():
    with pytest.raises(ParseError) as err:
        load_fluid_table(io.StringIO("\n\nT/K p/bar h/(J/kg)\n"))
    assert err.value.line == 3


def test_load_missing_axis():
    text = "T/K p/Pa h/(J/kg)\np: 1e6 2e6\n"
    with pytest.raises(ParseError) as err:
        load_fluid_table(io.StringIO(text))
    assert err.value.line == 2


def test_load_non_number_in_axis():
    text = "T/K p/Pa h/(J/kg)\nT: 280 hot\np: 1e6 2e6\n1\n2\n3\n4\n"
    with pytest.raises(ParseError) as err:
        load_fluid_table(io.StringIO(text))
    assert err.value.line == 2


def test_load_two_values_on_one_body_line():
    text = "T/K p/Pa h/(J/kg)\nT: 280 300\np: 1e6 2e6\n1 2\n3\n4\n"
    with pytest.raises(ParseError) as err:
        load_fluid_table(io.StringIO(text))
    assert err.value.line == 4


def test_load_missing_cells_points_past_last_line():
    text = "T/K p/Pa h/(J/kg)\nT: 280 300\np: 1e6 2e6\n1\n2\n3\n"
    with pytest.raises(ParseError) as err:
        load_fluid_table(io.StringIO(text))
    assert "missing grid cells" in str(err.value)


def test_load_too_many_cells():
    text = "T/K p/Pa h/(J/kg)\nT: 280 300\np: 1e6 2e6\n1\n2\n3\n4\n5\n"
    with pytest.raises(ParseError) as err:
        load_fluid_table(io.StringIO(text))
    assert err.value.line == 8


def test_load_nonmonotone_axis_in_file():
    text = "T/K p/Pa h/(J/kg)\nT: 300 280\np: 1e6 2e6\n1\n2\n3\n4\n"
    with pytest.raises(NonMonotonicAxisError):
        load_fluid_table(io.StringIO(text))


def test_load_from_a_path_names_the_file_and_line(tmp_path):
    # a copy of the shipped table with a byte that is not UTF-8 on line 5
    lines = (ROOT / "scenarios" / "co2_like.txt").read_bytes().split(b"\n")
    lines[4] += b"\xfe"
    path = tmp_path / "co2_like.txt"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_fluid_table(path)
    assert str(err.value) == f"{path}, line 5: not UTF-8 text (invalid start byte)"
    assert err.value.line == 5
    # a file-like source has no name to give
    with pytest.raises(ParseError) as err:
        load_fluid_table(io.StringIO("T/K p/Pa h/(J/kg)\nT: 280 hot\n"))
    assert str(err.value) == "line 2: expected a number, got 'hot'"


def test_save_load_round_trip(tmp_path):
    f = make_co2_like_table()
    path = tmp_path / "rt.txt"
    save_fluid_table(f, path)
    g = load_fluid_table(path)
    assert g.T_grid == f.T_grid
    assert g.p_grid == f.p_grid
    assert g.h_grid == f.h_grid


# ---------------------------------------------------------------------------
# Synthetic sample data


def test_co2_like_table_matches_surface():
    f = make_co2_like_table()
    for T, p in [(290.0, 9.0e6), (380.0, 1.0e7), (427.0, 1.15e7)]:
        # On-node queries reproduce the analytic surface exactly; between
        # nodes bilinear error stays small for this smooth function.
        got = f.enthalpy(T, p)
        ref = co2_like_enthalpy(T, p)
        assert got == pytest.approx(ref, rel=2e-4)


def test_co2_like_mean_cp_varies_strongly():
    # The pseudocritical peak makes the mean cp swing visibly with the
    # temperature span; the monitoring bias experiment relies on this.
    f = make_co2_like_table()
    wide = f.mean_specific_heat(380.0, 320.0, 1.0e7)
    narrow = f.mean_specific_heat(380.0, 370.0, 1.0e7)
    assert wide > 1.15 * narrow


def test_coolant_model_mean_cp():
    f = make_coolant_model()
    assert f.mean_specific_heat(300.0, 320.0, 5e5) == pytest.approx(
        2800.0 + 620.0, rel=1e-12
    )


def test_stream_config_rejects_nonpositive_pressure():
    with pytest.raises(ValueError):
        StreamConfig(CaloricallyPerfect(1000.0), 0.0)


@pytest.mark.parametrize("pressure", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_stream_config_rejects_a_pressure_that_is_not_finite_and_positive(pressure):
    with pytest.raises(ValueError, match="pressure must be positive and finite"):
        StreamConfig(CaloricallyPerfect(1000.0), pressure)


def test_mean_cp_secant_oracle_against_quadrature():
    # Independent oracle: midpoint-rule quadrature of the point cp of the
    # tabulated CO2-like model over the same span.
    f = make_co2_like_table()
    t1, t2, p = 330.0, 390.0, 1.0e7
    n = 4000
    dt = (t2 - t1) / n
    acc = 0.0
    for k in range(n):
        tm = t1 + (k + 0.5) * dt
        acc += (f.enthalpy(tm + 0.005, p) - f.enthalpy(tm - 0.005, p)) / 0.01
    quad = acc / n
    assert f.mean_specific_heat(t1, t2, p) == pytest.approx(quad, rel=5e-4)
