"""Tests for the scenario harness: config assembly, excitation, truth
simulation, monitoring replay, metrics, and the benchmark helper."""

import math
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hxtwin.harness as harness
import hxtwin.reference_model as reference_model
import hxtwin.wall_dynamics as wall_dynamics
from hxtwin.approx_model import approx_steady_selfconsistent, update_cp_params
from hxtwin.config import ConfigError, parse_config
from hxtwin.correlations import (
    CorrelationParams,
    alpha_A,
    reference_alpha_A,
    serial_conductance,
)
from hxtwin.ekf import MDOT_FLOOR, UPSILON_FLOOR, EkfConfig, conductances
from hxtwin.fluids import (
    CaloricallyPerfect,
    StreamConfig,
    Tabulated,
    ThermallyPerfect,
    save_fluid_table,
)
from hxtwin.harness import BenchResult, bench_models, run_monitor, run_truth_sim
from hxtwin.means import log_mean
from hxtwin.metrics import (
    WindowOutOfRange,
    compare_report,
    innovation_means,
    model_free_rating,
    recovery_time,
    window_errors,
)
from hxtwin.records import (
    MONITOR_COLUMNS,
    TELEMETRY_COLUMNS,
    MonitorRecord,
    TelemetryRecord,
    read_monitor_csv,
    read_telemetry_csv,
    write_monitor_csv,
    write_telemetry_csv,
)
from hxtwin.reference_model import InletConditions, OutletTemps
from hxtwin.sampledata import make_co2_like_table, make_coolant_model
from hxtwin.scenario import (
    build_scenario,
    initial_point,
    inputs_at,
    load_scenario,
    truth_conductances,
)
from hxtwin.wall_dynamics import WallDynamicsConfig

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

SMOKE_CFG = """\
[scenario]
name = smoke
duration_s = 60
dt_s = 0.5
seed = 11

[streams.hot]
kind = perfect
cp_J_kgK = 1000
pressure_Pa = 1e5

[streams.cold]
kind = perfect
cp_J_kgK = 2000
pressure_Pa = 1e5

[inputs]
T_h1_K = 400
T_c1_K = 300
mdot_h_kg_s = 1.0
mdot_c_kg_s = 1.0

[truth.conductances]
kind = constant
aA_h_W_K = 1500
aA_c_W_K = 3000

[plant]
theta7_J_K = 2000
noise_std_K = 0.05

[monitoring]
variant = A
upsilon0_h_W_K = 1500
upsilon0_c_W_K = 3000
Q_design_W = 60000
"""


def smoke_scenario(extra: str = ""):
    return build_scenario(parse_config(SMOKE_CFG + extra))


# ---------------------------------------------------------------------------
# Scenario assembly


def test_build_scenario_smoke_fields():
    scn = smoke_scenario()
    assert scn.name == "smoke"
    assert scn.duration_s == 60.0
    assert scn.dt_s == 0.5
    assert scn.seed == 11
    assert isinstance(scn.hot.fluid, CaloricallyPerfect)
    assert scn.hot.fluid.cp == 1000.0
    assert scn.base_inlets.T_h1 == 400.0
    assert scn.base_inlets.mdot_c == 1.0
    assert scn.excitation.kind == "constant"
    assert scn.truth_cond.kind == "constant"
    assert scn.truth_cond.aA_h_start == scn.truth_cond.aA_h_end == 1500.0
    assert scn.plant.wall.theta7 == 2000.0
    assert scn.plant.wall.substeps_per_sample == 10  # default
    assert scn.plant.wall_init is None
    assert scn.monitoring.ekf.variant == "A"
    assert scn.monitoring.mdot_c0 == 1.0  # defaults to base cold flow
    assert scn.monitoring.trust_mdot_c is True


def test_build_scenario_rejects_typo_key():
    # a typo of an optional key leaves the default in place and is itself unknown
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(SMOKE_CFG.replace("seed =", "sede =")))
    assert "unknown key 'sede' in section [scenario]" in str(exc.value)
    assert exc.value.line == SMOKE_CFG.splitlines().index("seed = 11") + 1
    # a typo of a required key fails its getter first
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(SMOKE_CFG.replace("dt_s =", "dt_z =")))
    assert "missing key 'dt_s' in section [scenario]" in str(exc.value)


def test_build_scenario_rejects_nonpositive_duration():
    bad = SMOKE_CFG.replace("duration_s = 60", "duration_s = -5")
    with pytest.raises(ConfigError):
        build_scenario(parse_config(bad))


def test_build_scenario_wall_init_override():
    scn = build_scenario(parse_config(SMOKE_CFG.replace(
        "noise_std_K = 0.05",
        "noise_std_K = 0.05\nT_w1_init_K = 360\nT_w2_init_K = 310",
    )))
    assert scn.plant.wall_init is not None
    assert scn.plant.wall_init.T_w1 == 360.0
    assert scn.plant.wall_init.T_w2 == 310.0


def test_build_scenario_step_excitation():
    scn = build_scenario(parse_config(SMOKE_CFG + """
[excitation]
kind = step
step_time_s = 10
step_mdot_c_kg_s = 0.5
"""))
    assert scn.excitation.kind == "step"
    assert scn.excitation.step_targets == {"mdot_c": 0.5}


def test_step_excitation_without_targets_rejected():
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(SMOKE_CFG + "\n[excitation]\nkind = step\nstep_time_s = 10\n"))
    assert "step_*" in str(exc.value)


def test_chirp_amp_frac_bounds():
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(SMOKE_CFG + """
[excitation]
kind = chirp
f1_Hz = 0.5
mdot_h_amp_frac = 1.2
"""))
    assert "[0, 1)" in str(exc.value)


def smoke_with_value(section, key, value):
    """The smoke config with a step or chirp excitation (and a ramp for
    the ramp keys) whose ``key`` reads ``value``, first in its section;
    returns the text and the line of the value."""
    excitation = ("kind = step\nstep_time_s = 10\n" if key.startswith("step_")
                  else "kind = chirp\nf1_Hz = 0.5\n")
    text = SMOKE_CFG + "\n[excitation]\n" + excitation
    if "_start_" in key or "_end_" in key:
        text = text.replace("kind = constant\naA_h_W_K = 1500\naA_c_W_K = 3000\n", (
            "kind = ramp\naA_h_start_W_K = 1500\naA_h_end_W_K = 1200\n"
            "aA_c_start_W_K = 3000\naA_c_end_W_K = 2800\n"))
    if key == "T_w2_init_K":
        text = text.replace("[plant]\n", "[plant]\nT_w1_init_K = 350\n")
    # drop the smoke value, if any, and put the bad one first in its section
    text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
    text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    return text, text.splitlines().index(f"{key} = {value}") + 1


@pytest.mark.parametrize("section, key, value", [
    ("excitation", "span_s", "0"),
    ("excitation", "span_s", "-30"),
    ("plant", "substeps_per_sample", "0"),
    ("plant", "noise_std_K", "-0.1"),
    ("monitoring", "upsilon0_h_W_K", "-5"),
    ("monitoring", "upsilon0_c_W_K", "0"),
    ("monitoring", "mdot_c0_kg_s", "0"),
    ("monitoring", "Q_design_W", "0"),
    ("monitoring", "Q_design_W", "-60000"),
    ("monitoring", "cp_constant_hot_J_kgK", "0"),
    ("inputs", "mdot_h_kg_s", "0"),
    ("inputs", "mdot_c_kg_s", "-1"),
    ("inputs", "T_h1_K", "nan"),
    ("inputs", "T_c1_K", "inf"),
    ("excitation", "step_mdot_c_kg_s", "0"),
    ("excitation", "step_mdot_h_kg_s", "nan"),
    ("excitation", "step_T_h1_K", "nan"),
    ("excitation", "step_time_s", "nan"),
    ("excitation", "step_time_s", "-inf"),
    ("excitation", "f0_Hz", "nan"),
    ("excitation", "f1_Hz", "nan"),
    ("excitation", "f1_Hz", "inf"),
    ("plant", "theta7_J_K", "inf"),
    ("plant", "theta7_J_K", "0"),
    ("plant", "T_w1_init_K", "nan"),
    ("plant", "T_w2_init_K", "inf"),
    ("scenario", "dt_s", "nan"),
    ("scenario", "duration_s", "inf"),
    ("scenario", "duration_s", "0"),
    ("scenario", "seed", "-3"),
    ("streams.hot", "pressure_Pa", "0"),
    ("streams.hot", "cp_J_kgK", "-1"),
    ("truth.conductances", "aA_h_W_K", "0"),
    ("truth.conductances", "aA_c_end_W_K", "-100"),
])
def test_nonpositive_span_and_substeps_rejected_with_line(section, key, value):
    text, line = smoke_with_value(section, key, value)
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(text))
    assert exc.value.line == line
    assert f"'{key}'" in str(exc.value)


@pytest.mark.parametrize("section, key", [
    ("inputs", "mdot_h_kg_s"),
    ("inputs", "mdot_c_kg_s"),
    ("excitation", "step_mdot_h_kg_s"),
    ("excitation", "step_mdot_c_kg_s"),
    ("excitation", "span_s"),
    ("truth.conductances", "aA_h_W_K"),
    ("truth.conductances", "aA_c_W_K"),
    ("truth.conductances", "aA_h_start_W_K"),
    ("truth.conductances", "aA_h_end_W_K"),
    ("truth.conductances", "aA_c_start_W_K"),
    ("truth.conductances", "aA_c_end_W_K"),
    ("streams.hot", "cp_J_kgK"),
    ("streams.hot", "pressure_Pa"),
    ("monitoring", "upsilon0_h_W_K"),
    ("monitoring", "upsilon0_c_W_K"),
    ("monitoring", "mdot_c0_kg_s"),
    ("monitoring", "Q_design_W"),
    ("monitoring", "cp_constant_hot_J_kgK"),
])
def test_infinite_value_rejected_on_its_line(section, key):
    text, line = smoke_with_value(section, key, "inf")
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(text))
    assert str(exc.value) == f"line {line}: '{key}' must be finite and positive"


# Templates for the property below: together they reach every kind
# branch and list every key a builder asks for, each with a valid value.
# Template 0 leaves the filter densities to their defaults, template 1
# pins every tuning key and template 2 only the assumed sensor noise.
_PROPERTY_TEMPLATES = [
    SMOKE_CFG.replace("[plant]\n", "[plant]\nsubsteps_per_sample = 10\n")
    + "mdot_c0_kg_s = 1.0\ncp_model = constant\ncp_constant_hot_J_kgK = 1000\n"
    "trust_mdot_c = false\nexp1_hot = 0.6\nexp2_hot = 0.2\noffset_hot_W_K = 5\n"
    "exp1_cold = 0.6\nexp2_cold = 0.2\noffset_cold_W_K = 5\n"
    "\n[excitation]\nkind = constant\n",
    SMOKE_CFG.replace("kind = perfect\ncp_J_kgK = 1000",
                      "kind = polynomial\ncp_coeffs = 2800, 2.0\nhull_K = 200, 600")
    .replace("kind = perfect\ncp_J_kgK = 2000\npressure_Pa = 1e5",
             "kind = table\ntable_path = gas.txt\npressure_Pa = 1e7")
    .replace("kind = constant\naA_h_W_K = 1500\naA_c_W_K = 3000",
             "kind = ramp\naA_h_start_W_K = 1500\naA_h_end_W_K = 1200\n"
             "aA_c_start_W_K = 3000\naA_c_end_W_K = 2800")
    .replace("[plant]\n", "[plant]\nT_w1_init_K = 360\nT_w2_init_K = 310\n")
    + "\n[excitation]\nkind = step\nstep_time_s = 10\nstep_T_h1_K = 410\n"
    "step_T_c1_K = 305\nstep_mdot_h_kg_s = 0.9\nstep_mdot_c_kg_s = 0.5\n"
    "\n[monitoring.tuning]\nr_x_density = 0.01\nr_upsilon_density = 1000\n"
    "r_y_density = 0.01\nr_mdot_density = 0.1\nassumed_noise_std_K = 0.1\n",
    SMOKE_CFG.replace("kind = perfect\ncp_J_kgK = 1000\npressure_Pa = 1e5",
                      "kind = table\ntable_path = gas.txt\npressure_Pa = 1e7")
    .replace("kind = perfect\ncp_J_kgK = 2000",
             "kind = polynomial\ncp_coeffs = 2800, 2.0\nhull_K = 200, 600")
    .replace("kind = constant\naA_h_W_K = 1500\naA_c_W_K = 3000",
             "kind = correlation\n" + "".join(
        f"{side}_coefficient_W_K = 100\n{side}_exp_mdot = 0.8\n{side}_exp_cp = 0.3\n"
        f"{side}_exp_eta = -0.4\n{side}_exp_lam = 0.6\n{side}_eta_Pa_s = 2e-5\n"
        f"{side}_lam_W_mK = 0.1\n" for side in ("hot", "cold")))
    + "\n[excitation]\nkind = chirp\nf0_Hz = 0.01\nf1_Hz = 0.5\nspan_s = 60\n"
    "T_h1_amp_K = 3\nT_c1_amp_K = 3\nmdot_h_amp_frac = 0.1\nmdot_c_amp_frac = 0.1\n"
    "\n[monitoring.tuning]\nassumed_noise_std_K = 0.1\n",
]
# (template, line index) of every 'key = value' line
_PROPERTY_SLOTS = [
    (t, i) for t, text in enumerate(_PROPERTY_TEMPLATES)
    for i, line in enumerate(text.splitlines()) if " = " in line
]
_PROPERTY_TOKENS = [
    "0", "-0.0", "-1", "nan", "inf", "-inf", "1e308", "1e-300", "text",
    "1, 2", "2, 1", "5, 5", "perfect", "polynomial", "table", "constant",
    "step", "chirp", "ramp", "correlation", "A", "C", "tracked",
]


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables")
    save_fluid_table(make_co2_like_table(290.0, 430.0, 10.0), path / "gas.txt")
    return str(path)


def _check_start_point(text: str, base_dir: str) -> None:
    """The scenario builds and reaches its start point, with finite truth
    conductances, and a filter configuration of every variant, or a
    ConfigError names a line."""
    try:
        scn = build_scenario(parse_config(text), base_dir=base_dir)
        _u, cond = initial_point(scn)
        assert math.isfinite(cond.aA_h) and math.isfinite(cond.aA_c), cond
        for variant in ("A", "B", "C"):
            replace(scn.monitoring.ekf, variant=variant)
    except ConfigError as exc:
        assert exc.line > 0, str(exc)


def test_property_templates_build_and_list_every_key(table_dir):
    listed, asked = set(), set()
    for text in _PROPERTY_TEMPLATES:
        raw = parse_config(text)
        initial_point(build_scenario(raw, base_dir=table_dir))
        listed |= set(raw.entries)
        asked |= raw.asked
    assert listed == asked


def _replace_value(text: str, index: int, token: str) -> str:
    lines = text.splitlines()
    lines[index] = lines[index].split(" = ")[0] + " = " + token
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(slot=st.sampled_from(_PROPERTY_SLOTS), token=st.sampled_from(_PROPERTY_TOKENS))
@example(slot=(2, _PROPERTY_TEMPLATES[2].splitlines().index("hot_coefficient_W_K = 100")),
         token="1e308")  # an infinite start-point conductance
def test_any_one_bad_value_builds_or_raises_config_error_with_line(table_dir, slot, token):
    template, index = slot
    _check_start_point(_replace_value(_PROPERTY_TEMPLATES[template], index, token), table_dir)


def test_huge_truth_exponent_rejected_on_its_line(table_dir):
    # the chirp starts the cold flow at 0.9 kg/s, and 0.9^1e308 underflows
    text = _PROPERTY_TEMPLATES[2].replace("cold_exp_mdot = 0.8", "cold_exp_mdot = 1e308")
    line = text.splitlines().index("cold_exp_mdot = 1e308") + 1
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(text), base_dir=table_dir)
    assert str(exc.value) == (
        f"line {line}: 'cold_exp_mdot' gives the start-point factor "
        "mdot^cold_exp_mdot = 0.9^1e+308 = 0.0, which must be finite and positive")


@pytest.mark.parametrize("value", ["1e5", "1.3e7", "inf", "1e-300"])
def test_table_pressure_off_the_axis_rejected_on_its_line(table_dir, value):
    text = _PROPERTY_TEMPLATES[2].replace("pressure_Pa = 1e7", f"pressure_Pa = {value}")
    line = text.splitlines().index(f"pressure_Pa = {value}") + 1
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(text), base_dir=table_dir)
    assert str(exc.value) == (
        f"line {line}: 'pressure_Pa' must lie on the table's pressure axis [8e+06, 1.2e+07] Pa")


POLY_CFG = SMOKE_CFG.replace(
    "kind = perfect\ncp_J_kgK = 2000",
    "kind = polynomial\ncp_coeffs = 2800, 2.0\nhull_K = 200, 600",
)


R_X_DEFAULT_INF = (
    "gives the default r_x_density = 0.1 (Q_design_W / (100 theta7_J_K))^2 = inf, which"
    " must be finite and positive; set r_x_density in [monitoring.tuning]")


@pytest.mark.parametrize("section, key, value, line_key, message", [
    # each tuning value, on its own line
    ("monitoring.tuning", "r_x_density", "nan", None, "must be finite and positive"),
    ("monitoring.tuning", "r_upsilon_density", "inf", None, "must be finite and positive"),
    ("monitoring.tuning", "r_y_density", "nan", None, "must be finite and positive"),
    ("monitoring.tuning", "r_mdot_density", "-1", None, "must be finite and positive"),
    ("monitoring.tuning", "assumed_noise_std_K", "0", None, "must be finite and positive"),
    # a default density that fails, on the line of the key it derives from
    ("plant", "noise_std_K", "0", None, "gives the default r_y_density = noise_std_K^2"
     " = 0.0, which must be finite and positive; set r_y_density in [monitoring.tuning]"),
    ("monitoring.tuning", "assumed_noise_std_K", "1e-300", None,
     "gives the default r_y_density = assumed_noise_std_K^2 = 0.0, which must be finite"
     " and positive; set r_y_density in [monitoring.tuning]"),
    ("monitoring", "Q_design_W", "1e308", None, R_X_DEFAULT_INF),
    ("plant", "theta7_J_K", "1e-300", ("monitoring", "Q_design_W"), R_X_DEFAULT_INF),
    # fluids and inlets
    ("streams.cold", "hull_K", "600, 200", None, "expects two numbers, finite and increasing"),
    ("streams.cold", "hull_K", "200, inf", None, "expects two numbers, finite and increasing"),
    ("streams.cold", "cp_coeffs", "100, -1", None, "cp polynomial nonpositive at T=200.00 K"),
    ("streams.cold", "cp_coeffs", "2800, nan", None,
     "enthalpy polynomial not finite on the hull"),
    ("streams.cold", "cp_coeffs", "1e308", None, "enthalpy polynomial not finite on the hull"),
    ("inputs", "T_c1_K", "1e308", None, "must lie in the cold fluid hull [200, 600] K"),
    ("inputs", "T_c1_K", "150", None, "must lie in the cold fluid hull [200, 600] K"),
    ("excitation", "step_T_c1_K", "650", None, "must lie in the cold fluid hull [200, 600] K"),
    ("excitation", "T_c1_amp_K", "120", None,
     "swings T_c1_K = 300 out of range: it must lie in the cold fluid hull [200, 600] K"),
    ("excitation", "T_h1_amp_K", "nan", None,
     "swings T_h1_K = 400 out of range: it must be finite"),
    # a hot inlet must also lie in the cold fluid hull
    ("inputs", "T_h1_K", "650", None, "must lie in the cold fluid hull [200, 600] K"),
    ("excitation", "step_T_h1_K", "150", None, "must lie in the cold fluid hull [200, 600] K"),
    ("excitation", "T_h1_amp_K", "250", None,
     "swings T_h1_K = 400 out of range: it must lie in the cold fluid hull [200, 600] K"),
    # and above the cold inlet, before and after a step and through a chirp
    ("inputs", "T_h1_K", "300", None, "must exceed T_c1_K = 300, got 300"),
    ("inputs", "T_h1_K", "250", None, "must exceed T_c1_K = 300, got 250"),
    ("inputs", "T_c1_K", "450", ("inputs", "T_h1_K"), "must exceed T_c1_K = 450, got 400"),
    ("excitation", "step_T_h1_K", "250", None,
     "leaves T_h1_K = 250 at or below T_c1_K = 300 after the step"),
    ("excitation", "step_T_c1_K", "400", None,
     "leaves T_h1_K = 400 at or below T_c1_K = 400 after the step"),
    ("excitation", "T_h1_amp_K", "100", None, "swings T_h1_K to or below T_c1_K: the smallest"
     " T_h1_K - T_c1_K is 100 - hypot(100, 0) = 0 K"),
    ("excitation", "T_c1_amp_K", "100", None, "swings T_h1_K to or below T_c1_K: the smallest"
     " T_h1_K - T_c1_K is 100 - hypot(0, 100) = 0 K"),
    # a perfect-gas stream has no hull, but a temperature must lie above 0 K
    ("inputs", "T_h1_K", "0", None, "must be positive"),
    ("inputs", "T_h1_K", "-5", None, "must be positive"),
    ("excitation", "step_T_h1_K", "-5", None, "must be positive"),
    ("excitation", "T_h1_amp_K", "450", None,
     "swings T_h1_K = 400 out of range: it must be positive"),
    # truth correlation
    ("truth.conductances", "hot_coefficient_W_K", "0", None, "must be finite and positive"),
    ("truth.conductances", "cold_eta_Pa_s", "-1", None, "must be finite and positive"),
    ("truth.conductances", "cold_exp_cp", "nan", None, "must be finite"),
    ("truth.conductances", "cold_exp_cp", "1e308", None, "gives the start-point factor"
     " cp^cold_exp_cp = 3400^1e+308 = inf, which must be finite and positive"),
    ("truth.conductances", "hot_coefficient_W_K", "1e308", None, "gives the start-point"
     " conductance aA_h = inf W/K, which must be finite and positive"),
])
def test_bad_value_rejected_on_its_line(section, key, value, line_key, message):
    if key.startswith("step_"):
        excitation = "kind = step\nstep_time_s = 10\n"
    else:
        excitation = "kind = chirp\nf1_Hz = 0.5\n"
    text = POLY_CFG + "\n[excitation]\n" + excitation + "\n[monitoring.tuning]\n"
    if section == "truth.conductances":
        text = text.replace("kind = constant\naA_h_W_K = 1500\naA_c_W_K = 3000\n", (
            "kind = correlation\nhot_coefficient_W_K = 100\nhot_exp_mdot = 0.8\n"
            "hot_exp_cp = 0.3\ncold_coefficient_W_K = 100\ncold_exp_mdot = 0.8\n"
            "cold_exp_cp = 0.3\n"))
    text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
    text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    lines = text.splitlines()
    if line_key is None:
        line = lines.index(f"{key} = {value}") + 1
    else:
        line = parse_config(text).line_of(*line_key)
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(text))
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: '{line_key[1] if line_key else key}' {message}"


@pytest.mark.parametrize("section, bad_line, text", [
    ("streams.cold", "cp_J_kgK = 2000", SMOKE_CFG.replace(
        "kind = perfect\ncp_J_kgK = 2000", "kind = polynomial\ncp_coeffs = 2800, 2.0\n"
        "cp_J_kgK = 2000")),
    ("excitation", "step_time_s = 10",
     SMOKE_CFG + "\n[excitation]\nkind = chirp\nf1_Hz = 0.5\nstep_time_s = 10\n"),
    ("truth.conductances", "aA_h_W_K = 1500", SMOKE_CFG.replace(
        "kind = constant\naA_h_W_K = 1500\naA_c_W_K = 3000\n",
        "kind = ramp\naA_h_start_W_K = 1500\naA_h_end_W_K = 1200\naA_c_start_W_K = 3000\n"
        "aA_c_end_W_K = 2800\naA_h_W_K = 1500\n")),
    ("truth.conductances", "hot_coefficient_W_K = 100", SMOKE_CFG.replace(
        "aA_c_W_K = 3000\n", "aA_c_W_K = 3000\nhot_coefficient_W_K = 100\n")),
    ("excitation", "f0_Hz = 0.01", SMOKE_CFG + "\n[excitation]\nkind = step\n"
     "step_time_s = 10\nstep_T_h1_K = 410\nf0_Hz = 0.01\n"),
], ids=["perfect-on-polynomial", "step-on-chirp", "constant-on-ramp",
        "correlation-on-constant", "chirp-on-step"])
def test_key_of_another_kind_rejected_on_its_line(section, bad_line, text):
    line = text.splitlines().index(bad_line) + 1
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(text))
    key = bad_line.split(" = ")[0]
    assert str(exc.value) == f"line {line}: unknown key '{key}' in section [{section}]"


def test_cold_swing_below_a_hot_table_hull_rejected_on_its_line(tmp_path):
    # the hot outlet and the walls follow the cold inlet, so this swing
    # would take the hot table below its hull in the middle of a run
    save_fluid_table(make_co2_like_table(300.0, 430.0, 10.0), tmp_path / "gas.txt")
    text = SMOKE_CFG.replace(
        "kind = perfect\ncp_J_kgK = 1000\npressure_Pa = 1e5",
        "kind = table\ntable_path = gas.txt\npressure_Pa = 1e7",
    ) + "\n[excitation]\nkind = chirp\nf1_Hz = 0.5\nT_c1_amp_K = 3\n"
    line = text.splitlines().index("T_c1_amp_K = 3") + 1
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(text), base_dir=str(tmp_path))
    assert str(exc.value) == (f"line {line}: 'T_c1_amp_K' swings T_c1_K = 300 out of range: "
                              "it must lie in the hot fluid hull [300, 430] K")


@pytest.mark.parametrize("excitation, bad_line, message", [
    ("kind = step\nstep_time_s = 10\nstep_T_h1_K = 350\nstep_T_c1_K = 360\n",
     "step_T_h1_K = 350", "leaves T_h1_K = 350 at or below T_c1_K = 360 after the step"),
    ("kind = chirp\nf1_Hz = 0.5\nT_h1_amp_K = 80\nT_c1_amp_K = 70\n", "T_c1_amp_K = 70",
     "swings T_h1_K to or below T_c1_K: the smallest T_h1_K - T_c1_K is "
     "100 - hypot(80, 70) = -6.30146 K"),
], ids=["step-both-sides", "chirp-both-swings"])
def test_inlets_that_cross_together_rejected_on_their_line(excitation, bad_line, message):
    # each value alone passes; the crossing needs both inlets
    text = POLY_CFG + "\n[excitation]\n" + excitation
    line = text.splitlines().index(bad_line) + 1
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(text))
    assert str(exc.value) == f"line {line}: '{bad_line.split(' = ')[0]}' {message}"
    # a step that keeps the order, and swings whose smallest gap is
    # 100 - hypot(60, 70) = 7.8 K, load
    build_scenario(parse_config(text.replace("step_T_c1_K = 360", "step_T_c1_K = 340")
                                .replace("T_h1_amp_K = 80", "T_h1_amp_K = 60")))


def test_zero_noise_needs_a_measurement_density():
    quiet = SMOKE_CFG.replace("noise_std_K = 0.05", "noise_std_K = 0")
    with pytest.raises(ConfigError, match="set r_y_density"):
        build_scenario(parse_config(quiet))
    scn = build_scenario(parse_config(quiet + "\n[monitoring.tuning]\nr_y_density = 0.01\n"))
    assert scn.monitoring.ekf.r_y_density == 0.01
    rec = run_truth_sim(scn)[-1]
    assert (rec.T_h2_meas_K, rec.T_c2_meas_K) == (rec.T_h2_true_K, rec.T_c2_true_K)


def test_load_scenario_errors_name_the_file(tmp_path):
    table = tmp_path / "bad.txt"
    table.write_text("T/K p/Pa h/(J/kg)\nT: 300 310\np: 1e5 2e5\n1\n2\nx\n4\n",
                     encoding="utf-8")
    path = tmp_path / "scn.cfg"
    path.write_text(SMOKE_CFG.replace("kind = perfect\ncp_J_kgK = 1000",
                                      "kind = table\ntable_path = bad.txt"), encoding="utf-8")
    line = SMOKE_CFG.splitlines().index("cp_J_kgK = 1000") + 1
    with pytest.raises(ConfigError) as exc:
        load_scenario(path)
    assert exc.value.line == line
    assert str(exc.value) == (f"{path}, line {line}: fluid table {table}: "
                              "line 6: expected a number, got 'x'")
    path.write_text(SMOKE_CFG.replace("dt_s = 0.5", "dt_s = 0"), encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}, line 4: 'dt_s' must be"):
        load_scenario(path)
    path.write_text("[scenario\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}, line 1: malformed"):
        load_scenario(path)


def test_polynomial_stream_and_bad_hull():
    good = SMOKE_CFG.replace(
        "kind = perfect\ncp_J_kgK = 2000",
        "kind = polynomial\ncp_coeffs = 2800, 2.0\nhull_K = 200, 600",
    )
    scn = build_scenario(parse_config(good))
    assert isinstance(scn.cold.fluid, ThermallyPerfect)
    bad = good.replace("hull_K = 200, 600", "hull_K = 200")
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(bad))
    assert "two numbers" in str(exc.value)


def test_table_stream_path_resolution(tmp_path):
    save_fluid_table(make_co2_like_table(300.0, 430.0, 10.0), tmp_path / "gas.txt")
    text = SMOKE_CFG.replace(
        "kind = perfect\ncp_J_kgK = 1000\npressure_Pa = 1e5",
        "kind = table\ntable_path = gas.txt\npressure_Pa = 1e7",
    )
    scn = build_scenario(parse_config(text), base_dir=str(tmp_path))
    assert isinstance(scn.hot.fluid, Tabulated)
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(text), base_dir=str(tmp_path / "nope"))
    assert "not found" in str(exc.value)


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "smoke.cfg"
    path.write_text(SMOKE_CFG, encoding="utf-8")
    scn = load_scenario(path)
    assert scn.name == "smoke"
    assert scn.duration_s == 60.0


# ---------------------------------------------------------------------------
# Excitation and truth conductances


def test_inputs_at_constant_returns_base():
    scn = smoke_scenario()
    assert inputs_at(scn, 37.5) == scn.base_inlets


def test_inputs_at_step_switches_at_event():
    scn = build_scenario(parse_config(SMOKE_CFG + """
[excitation]
kind = step
step_time_s = 10
step_mdot_c_kg_s = 0.5
step_T_h1_K = 410
"""))
    before = inputs_at(scn, 9.999)
    at = inputs_at(scn, 10.0)
    assert before == scn.base_inlets
    assert at.mdot_c == 0.5 and at.T_h1 == 410.0
    assert at.T_c1 == scn.base_inlets.T_c1  # untouched channel


def test_inputs_at_chirp_matches_phase_oracle():
    scn = build_scenario(parse_config(SMOKE_CFG + """
[excitation]
kind = chirp
f0_Hz = 0.0
f1_Hz = 0.5
span_s = 60
T_h1_amp_K = 3
T_c1_amp_K = 1
mdot_h_amp_frac = 0.1
mdot_c_amp_frac = 0.1
"""))
    base = scn.base_inlets
    for t in (0.0, 7.3, 30.0, 59.5):
        phase = 2.0 * math.pi * (0.5 * t * t / (2.0 * 60.0))
        u = inputs_at(scn, t)
        assert u.T_h1 == pytest.approx(base.T_h1 + 3.0 * math.sin(phase), abs=1e-12)
        assert u.T_c1 == pytest.approx(base.T_c1 + 1.0 * math.cos(phase), abs=1e-12)
        assert u.mdot_h == pytest.approx(base.mdot_h * (1.0 - 0.1 * math.sin(phase)), abs=1e-12)
        assert u.mdot_c == pytest.approx(base.mdot_c * (1.0 - 0.1 * math.cos(phase)), abs=1e-12)


def test_chirp_instantaneous_frequency_sweeps():
    # phase difference over a fixed dt grows as the sweep proceeds
    scn = build_scenario(parse_config(SMOKE_CFG + """
[excitation]
kind = chirp
f1_Hz = 0.5
span_s = 60
T_h1_amp_K = 3
"""))
    def phase(t):
        u = inputs_at(scn, t)
        return math.asin(min(1.0, max(-1.0, (u.T_h1 - 400.0) / 3.0)))
    early = abs(phase(1.0) - phase(0.0))
    late = abs(phase(30.05) - phase(30.0)) / 0.05
    assert late > early  # instantaneous frequency increased


def test_truth_conductances_constant_and_ramp():
    scn = smoke_scenario()
    u = scn.base_inlets
    outs = OutletTemps(u.T_h1, u.T_c1)
    for t in (0.0, 30.0, 60.0):
        cond = truth_conductances(scn, u, t, outs)
        assert (cond.aA_h, cond.aA_c) == (1500.0, 3000.0)
    ramp = build_scenario(parse_config(SMOKE_CFG.replace(
        "kind = constant\naA_h_W_K = 1500\naA_c_W_K = 3000",
        "kind = ramp\naA_h_start_W_K = 1500\naA_h_end_W_K = 1200\n"
        "aA_c_start_W_K = 3000\naA_c_end_W_K = 2400",
    )))
    assert truth_conductances(ramp, u, 0.0, outs).aA_h == 1500.0
    assert truth_conductances(ramp, u, 30.0, outs).aA_h == pytest.approx(1350.0)
    assert truth_conductances(ramp, u, 60.0, outs).aA_c == 2400.0
    # clamped beyond the run
    assert truth_conductances(ramp, u, 90.0, outs).aA_h == 1200.0


def test_truth_conductances_correlation_kind():
    scn = build_scenario(parse_config(SMOKE_CFG.replace(
        "kind = constant\naA_h_W_K = 1500\naA_c_W_K = 3000",
        "kind = correlation\n"
        "hot_coefficient_W_K = 37\nhot_exp_mdot = 0.8\nhot_exp_cp = 0.3333333333333333\n"
        "hot_exp_eta = -0.4666666666666667\nhot_exp_lam = 0.6666666666666666\n"
        "hot_eta_Pa_s = 2.8e-5\nhot_lam_W_mK = 0.085\n"
        "cold_coefficient_W_K = 2\ncold_exp_mdot = 0.8\ncold_exp_cp = 1\n"
        "cold_eta_Pa_s = 2.4e-4\ncold_lam_W_mK = 0.11",
    )))
    u = scn.base_inlets
    cond = truth_conductances(scn, u, 0.0, OutletTemps(350.0, 320.0))
    assert cond.aA_h == pytest.approx(
        reference_alpha_A(scn.truth_cond.corr_hot, 1.0, 1000.0), rel=1e-14
    )
    assert cond.aA_c == pytest.approx(
        reference_alpha_A(scn.truth_cond.corr_cold, 1.0, 2000.0), rel=1e-14
    )


# ---------------------------------------------------------------------------
# CSV round trip


def sample_telemetry():
    vals = [1.0 / 3.0, 400.123456789012, 300.0, 30.0, 41.0,
            343.5266598393584, 328.2366700803208, 343.6, 328.1,
            352.157780053547, 314.509, 55000.0, 65000.0, 29791.6, 1e7, 5e5]
    return [
        TelemetryRecord(*vals),
        TelemetryRecord(*[v + 0.5 for v in vals]),
    ]


def test_telemetry_csv_round_trip(tmp_path):
    path = tmp_path / "tel.csv"
    recs = sample_telemetry()
    write_telemetry_csv(recs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TELEMETRY_COLUMNS)
    assert lines[1].startswith("0.333333333333,")  # %.12g formatting
    back = read_telemetry_csv(path)
    assert len(back) == 2
    for rec, orig in zip(back, recs):
        for col in TELEMETRY_COLUMNS:
            assert getattr(rec, col) == float("%.12g" % getattr(orig, col))


def test_telemetry_header_validated(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,stuff\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_telemetry_csv(path)
    assert "unexpected telemetry header" in str(exc.value)


def sample_monitor():
    return [
        MonitorRecord(0.0, 352.1, 314.5, 55000.0, 65000.0, 41.0, 29791.6,
                      math.nan, math.nan, math.nan, math.nan, "init"),
        MonitorRecord(1.0, 352.2, 314.6, 54900.0, 64900.0, 40.9, 29700.0,
                      0.01, -0.02, 0.001, -0.002, "beta_empty_hot|beta_empty_cold"),
    ]


def test_monitor_csv_round_trip(tmp_path):
    recs = sample_monitor()
    path = tmp_path / "mon.csv"
    write_monitor_csv(recs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(MONITOR_COLUMNS)
    assert lines[2].endswith("beta_empty_hot|beta_empty_cold")
    back = read_monitor_csv(path)
    assert back[0].flags == "init"
    assert math.isnan(back[0].innov_h_K)
    assert back[1].flags == "beta_empty_hot|beta_empty_cold"
    assert back[1].kA_hat_W_K == 29700.0
    with pytest.raises(ValueError):
        read_telemetry_csv(path)  # wrong schema for this reader


@pytest.mark.parametrize("write, read, sample", [
    (write_telemetry_csv, read_telemetry_csv, sample_telemetry),
    (write_monitor_csv, read_monitor_csv, sample_monitor),
])
@pytest.mark.parametrize("damage, message", [
    (lambda row: ",".join(row.split(",")[:3]), "fields, got 3"),
    (lambda row: "x1" + row[row.index(","):], "could not convert string to float: 'x1'"),
], ids=["truncated", "non_numeric"])
def test_csv_readers_name_file_and_line_of_a_bad_row(
    tmp_path, write, read, sample, damage, message
):
    path = tmp_path / "out.csv"
    write(sample(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = damage(lines[2])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value).startswith(f"{path}, line 3: ")
    assert message in str(exc.value)


# ---------------------------------------------------------------------------
# Truth simulation


def test_run_truth_sim_smoke_shape_and_steady_start():
    scn = smoke_scenario()
    recs = run_truth_sim(scn)
    assert len(recs) == 121  # 60 s / 0.5 s + initial record
    assert recs[0].t_s == 0.0
    assert recs[1].t_s == 0.5
    assert recs[-1].t_s == pytest.approx(60.0)
    # settled start: truth outlets at the known constant-cp steady state
    assert recs[0].T_h2_true_K == pytest.approx(343.5266598393584, abs=1e-6)
    assert recs[0].T_c2_true_K == pytest.approx(328.2366700803208, abs=1e-6)
    # constant scenario stays put apart from noise
    assert recs[-1].T_h2_true_K == pytest.approx(recs[0].T_h2_true_K, abs=1e-6)
    for rec in recs:
        assert rec.aA_h_W_K == 1500.0 and rec.aA_c_W_K == 3000.0
        assert rec.kA_W_K == pytest.approx(serial_conductance(1500.0, 3000.0))
        assert abs(rec.T_h2_meas_K - rec.T_h2_true_K) < 0.05 * 6.0
        assert rec.p_h_Pa == 1e5


def test_run_truth_sim_deterministic_and_seed_sensitive():
    scn = smoke_scenario()
    a = run_truth_sim(scn)
    b = run_truth_sim(scn)
    assert a == b
    c = run_truth_sim(scn, seed=12)
    assert c != a
    assert c[0].T_h2_true_K == a[0].T_h2_true_K  # only the noise differs
    assert c[0].T_h2_meas_K != a[0].T_h2_meas_K


@pytest.mark.parametrize("name", ["smoke_constant", "coolant_step", "chirp_tracking"])
def test_truth_runs_flag_no_side_solve(name, monkeypatch, capsys):
    # Every side solve of the shipped truth runs converges without a
    # clamp, and every warm start converges by Newton, also where the
    # previous outlet lies outside the new bracket.  Each step makes one
    # ref_output per RK4 stage and one at its record, the count that
    # perfbench pins.
    counts = Counter()
    refs_at_step = []
    solve_side = reference_model._solve_side
    side_residual = reference_model._side_residual
    bracketed = reference_model.solve_bracketed
    integrate_step = harness.integrate_step
    warm = False

    def counted_side(*args):
        nonlocal warm
        warm = args[-1] is not None
        counts["side solves"] += 1
        counts["warm starts"] += warm
        T, r, flagged = solve_side(*args)
        counts["flagged"] += flagged
        return T, r, flagged

    def counted_residual(*args):
        # the side solve builds its residual closure only for the
        # bracketed search, so a warm start that builds one fell back
        counts["fallbacks"] += warm
        return side_residual(*args)

    def counted_bracketed(*args, **kwargs):
        result = bracketed(*args, **kwargs)
        counts["non-converged"] += not result[2]
        return result

    def counted_ref_output(ref_output):
        def counted(*args, **kwargs):
            counts["ref_output"] += 1
            return ref_output(*args, **kwargs)
        return counted

    def marked_step(*args):
        refs_at_step.append(counts["ref_output"])
        return integrate_step(*args)

    monkeypatch.setattr(reference_model, "_solve_side", counted_side)
    monkeypatch.setattr(reference_model, "_side_residual", counted_residual)
    monkeypatch.setattr(reference_model, "solve_bracketed", counted_bracketed)
    for module in (harness, wall_dynamics):
        monkeypatch.setattr(module, "ref_output", counted_ref_output(module.ref_output))
    monkeypatch.setattr(harness, "integrate_step", marked_step)
    recs = run_truth_sim(load_scenario(SCENARIOS / f"{name}.cfg"))
    with capsys.disabled():
        print(f"\n{name}: {dict(counts)}")
    # 40 RK4 stages per step and one solve at each record, two sides each
    assert counts["side solves"] == 2 * (41 * (len(recs) - 1) + 1)
    assert counts["warm starts"] == counts["side solves"] - 2
    assert counts["flagged"] == 0
    assert counts["non-converged"] == 0
    assert counts["fallbacks"] == 0
    marks = [*refs_at_step, counts["ref_output"]]
    assert len(marks) == len(recs)
    assert {b - a for a, b in zip(marks, marks[1:])} == {41}


def test_truth_run_takes_mean_cps_only_for_a_correlation(monkeypatch):
    # ramps and constants read no mean specific heat; a correlation
    # takes one per side at the start point and at each step
    ramp, correlation = (build_scenario(parse_config(SMOKE_CFG.replace(
        "kind = constant\naA_h_W_K = 1500\naA_c_W_K = 3000", truth))) for truth in (
        "kind = ramp\naA_h_start_W_K = 1500\naA_h_end_W_K = 1200\n"
        "aA_c_start_W_K = 3000\naA_c_end_W_K = 2400",
        "kind = correlation\nhot_coefficient_W_K = 100\nhot_exp_mdot = 0.8\n"
        "hot_exp_cp = 0.3\ncold_coefficient_W_K = 100\ncold_exp_mdot = 0.8\n"
        "cold_exp_cp = 0.3"))
    calls = []
    mean_specific_heat = CaloricallyPerfect.mean_specific_heat

    def counted(self, *args):
        calls.append(args)
        return mean_specific_heat(self, *args)

    monkeypatch.setattr(CaloricallyPerfect, "mean_specific_heat", counted)
    run_truth_sim(ramp)
    assert calls == []
    recs = run_truth_sim(correlation)
    assert len(calls) == 2 * len(recs)


def test_run_truth_sim_wall_init_relaxes():
    scn = build_scenario(parse_config(SMOKE_CFG.replace(
        "noise_std_K = 0.05",
        "noise_std_K = 0.05\nT_w1_init_K = 356\nT_w2_init_K = 312",
    )))
    recs = run_truth_sim(scn)
    assert recs[0].T_w1_K == 356.0 and recs[0].T_w2_K == 312.0
    # wall moves toward the settled values from the base smoke run
    settled = run_truth_sim(smoke_scenario())[0]
    d0 = abs(recs[0].T_w1_K - settled.T_w1_K)
    d_end = abs(recs[-1].T_w1_K - settled.T_w1_K)
    assert d_end < 0.2 * d0


def test_run_truth_sim_step_response():
    scn = build_scenario(parse_config(SMOKE_CFG + """
[excitation]
kind = step
step_time_s = 10
step_mdot_c_kg_s = 0.5
"""))
    recs = run_truth_sim(scn)
    before = [r for r in recs if r.t_s < 10.0]
    after = [r for r in recs if r.t_s >= 10.0]
    assert all(r.mdot_c_kg_s == 1.0 for r in before)
    assert all(r.mdot_c_kg_s == 0.5 for r in after)
    # halved coolant flow leaves the hot side warmer at the outlet
    assert after[-1].T_h2_true_K > before[0].T_h2_true_K + 5.0


# ---------------------------------------------------------------------------
# Monitoring


def test_monitoring_ekf_defaults_and_tuning():
    scn = smoke_scenario()
    cfg = scn.monitoring.ekf
    assert cfg.wall is scn.plant.wall  # one wall config for plant and filter
    assert cfg.variant == "A"
    assert cfg.r_x_density == pytest.approx(0.1 * (60000.0 / (100.0 * 2000.0)) ** 2)
    assert cfg.r_upsilon_density == pytest.approx(1000.0)
    assert cfg.r_y_density == pytest.approx(0.05 ** 2)
    assert cfg.r_mdot_density == pytest.approx(0.1)
    assert replace(cfg, variant="C").variant == "C"
    tuned = build_scenario(parse_config(SMOKE_CFG + """
[monitoring.tuning]
r_y_density = 0.5
assumed_noise_std_K = 0.2
"""))
    cfg2 = tuned.monitoring.ekf
    assert cfg2.r_y_density == 0.5  # explicit density wins over the noise rule


def test_monitor_cp_uses_the_floored_steady_conductances():
    # variant B with the flow and the cold leading factor below their
    # floors, a cp exponent on both sides and a polynomial cold stream,
    # so the steady cp fixed point moves theta5/theta6
    cfg = EkfConfig(
        variant="B", wall=WallDynamicsConfig(theta7=2000.0),
        corr_hot=CorrelationParams(exp1=0.6, exp2=0.3),
        corr_cold=CorrelationParams(exp1=0.8, exp2=0.2, offset=5.0),
        r_x_density=0.01, r_upsilon_density=1000.0, r_y_density=0.01,
    )
    hot = StreamConfig(CaloricallyPerfect(1000.0), 1e5)
    cold = StreamConfig(make_coolant_model(), 5e5)
    u = InletConditions(400.0, 300.0, 1.0, 1.0)
    x = np.array([350.0, 320.0, 1450.0, 0.5, 0.004])

    def kA_of(cp):
        return serial_conductance(
            alpha_A(CorrelationParams(0.6, 0.3), 1450.0, 1.0, cp.theta5),
            alpha_A(CorrelationParams(0.8, 0.2, 5.0), UPSILON_FLOOR, MDOT_FLOOR, cp.theta6),
        )

    u_eff = InletConditions(400.0, 300.0, 1.0, MDOT_FLOOR)
    _, want, n = approx_steady_selfconsistent(
        u_eff, hot, cold, kA_of, update_cp_params(hot, cold, u))
    assert n > 1
    got = harness._monitor_cp(cfg, hot, cold, x, u, None, None)
    assert got == want
    assert serial_conductance(*conductances(cfg, x[2:], u, got)[3:]) == kA_of(got)


def test_run_monitor_smoke_tracks_matched_plant():
    scn = smoke_scenario()
    tel = run_truth_sim(scn)
    mon = run_monitor(scn, tel)
    assert len(mon) == len(tel)
    first, rest = mon[0], mon[1:]
    assert first.flags == "init"
    assert math.isnan(first.innov_h_K)
    assert first.kA_hat_W_K == pytest.approx(1000.0, rel=1e-9)
    assert all(r.flags == "ok" for r in rest)
    assert all(r.mdot_c_hat_kg_s == 1.0 for r in mon)  # variant A echoes telemetry
    # matched filter stays near truth
    assert mon[-1].kA_hat_W_K == pytest.approx(1000.0, rel=0.05)
    tail = [r.innov_h_K for r in rest if r.t_s > 30.0]
    assert abs(sum(tail) / len(tail)) < 0.05


def test_run_monitor_rejects_bad_telemetry():
    scn = smoke_scenario()
    with pytest.raises(ValueError):
        run_monitor(scn, [])
    tel = run_truth_sim(scn)[:3]
    tel[2].t_s = tel[1].t_s  # stalled clock
    with pytest.raises(ValueError) as exc:
        run_monitor(scn, tel)
    assert "must increase" in str(exc.value)
    # no dt catches a first clock reading that is not finite
    for t_s in (math.nan, math.inf, -math.inf):
        tel[0].t_s = t_s
        with pytest.raises(ValueError, match="^" + re.escape(
                f"telemetry reading t_s must be finite, got {t_s} at t={t_s}") + "$"):
            run_monitor(scn, tel)


def test_run_monitor_reports_faults_in_record_order():
    scn = smoke_scenario()
    tel = run_truth_sim(scn)
    tel[5].t_s = tel[4].t_s  # stalled clock at t = 2 s
    tel[60].T_h2_meas_K = math.nan
    with pytest.raises(ValueError, match=r"^telemetry times must increase .* got dt=0\.0 "
                                         r"at t=2\.0$"):
        run_monitor(scn, tel)


@pytest.mark.parametrize("variant, column, k, value", [
    *(pytest.param(variant, column, 60, math.nan, id=f"{variant}-{column}")
      for variant, column in [
          ("A", "T_h2_meas_K"), ("C", "T_h2_meas_K"), ("A", "T_h1_K"), ("B", "T_c1_K"),
          ("A", "T_c2_meas_K"), ("A", "mdot_h_kg_s"), ("A", "mdot_c_kg_s"),
      ]),
    ("A", "mdot_h_kg_s", 60, 0.0), ("A", "mdot_h_kg_s", 60, -1.0),
    ("A", "mdot_h_kg_s", 0, 0.0), ("A", "mdot_h_kg_s", 0, -1.0),
    ("C", "mdot_h_kg_s", 60, 0.0), ("A", "mdot_c_kg_s", 60, 0.0),
    # perfect-gas streams: an inlet temperature at or below 0 K
    ("A", "T_h1_K", 60, 0.0), ("A", "T_h1_K", 60, -5.0), ("A", "T_h1_K", 0, -5.0),
    ("B", "T_c1_K", 60, 0.0), ("A", "T_c1_K", 0, 0.0),
])
def test_run_monitor_names_a_non_finite_reading(variant, column, k, value):
    # before the check, a NaN measured outlet ended in a
    # NonPositiveConductanceError, and a NaN inlet in a
    # SingularInnovationCovarianceError; a flow that is not positive
    # ended in a NonPositiveConductanceError with no column or time
    scn = smoke_scenario()
    tel = run_truth_sim(scn)
    setattr(tel[k], column, value)
    need = "finite" if math.isnan(value) else "positive"
    with pytest.raises(ValueError, match="^" + re.escape(
            f"telemetry reading {column} must be {need}, got {value} at t={tel[k].t_s}") + "$"):
        run_monitor(scn, tel, variant=variant)


@pytest.mark.parametrize("k", [0, 60])
@pytest.mark.parametrize("column, value, hull", [
    ("T_h1_K", 0.0, "hot fluid hull [270, 430]"),
    ("T_h1_K", -5.0, "hot fluid hull [270, 430]"),
    ("T_h1_K", 250.0, "hot fluid hull [270, 430]"),
    ("T_c1_K", 1e4, "cold fluid hull [200, 600]"),
])
def test_run_monitor_names_an_inlet_outside_a_fluid_hull(column, value, hull, k):
    # before the check, the cp refresh raised an OutOfRangeError with no
    # column or time
    scn = load_scenario(SCENARIOS / "coolant_step.cfg")
    tel = read_telemetry_csv(GOLDEN / "coolant_step.telemetry.csv")[:k + 2]
    setattr(tel[k], column, value)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"telemetry reading {column} must lie in the {hull} K, got {value} "
            f"at t={tel[k].t_s}") + "$"):
        run_monitor(scn, tel)


def test_run_monitor_checks_the_hot_inlet_against_a_constant_cp_model():
    # cp_model = constant replaces the table's hull with none; the cold
    # stream's hull, 0 K and the cold inlet still bound the hot inlet
    scn = load_scenario(SCENARIOS / "coolant_step.cfg")
    tel = read_telemetry_csv(GOLDEN / "coolant_step.telemetry.csv")[:62]
    tel[60].T_h1_K = 450.0  # above the hot table's hull [270, 430] K
    assert len(run_monitor(scn, tel, cp_model="constant")) == 62
    with pytest.raises(ValueError, match="hot fluid hull"):
        run_monitor(scn, tel)
    for value, fault in ((0.0, "must be positive"),
                         (150.0, "must lie in the cold fluid hull [200, 600] K"),
                         (250.0, "must exceed T_c1_K = 300.0"),
                         (300.0, "must exceed T_c1_K = 300.0")):
        tel[60].T_h1_K = value
        with pytest.raises(ValueError, match="^" + re.escape(
                f"telemetry reading T_h1_K {fault}, got {value} at t=60.0") + "$"):
            run_monitor(scn, tel, cp_model="constant")


@pytest.mark.parametrize("k", [0, 60])
@pytest.mark.parametrize("variant", ["A", "B"])
@pytest.mark.parametrize("T_h1, T_c1", [(300.0, 300.0), (299.0, 300.0), (400.0, 401.0)])
def test_run_monitor_rejects_a_hot_inlet_at_or_below_the_cold_inlet(T_h1, T_c1, variant, k):
    # before the check, such a record passed with an ok flag and moved
    # the rating
    scn = smoke_scenario()
    tel = run_truth_sim(scn)[:k + 2]
    tel[k].T_h1_K, tel[k].T_c1_K = T_h1, T_c1
    with pytest.raises(ValueError, match="^" + re.escape(
            f"telemetry reading T_h1_K must exceed T_c1_K = {T_c1}, got {T_h1} "
            f"at t={tel[k].t_s}") + "$"):
        run_monitor(scn, tel, variant=variant)


def test_run_monitor_ignores_a_reading_the_variant_does_not_take():
    scn = smoke_scenario()
    tel = run_truth_sim(scn)
    clean_b, clean_c = run_monitor(scn, tel, variant="B"), run_monitor(scn, tel, variant="C")
    tel[0].T_h2_meas_K = tel[0].T_c2_meas_K = math.nan  # record 0 only initializes
    tel[70].mdot_c_kg_s = math.nan  # B and C estimate the cold flow
    tel[80].mdot_c_kg_s = 0.0
    assert run_monitor(scn, tel, variant="B") == clean_b
    tel[60].T_c2_meas_K = math.inf  # C does not measure the cold outlet
    assert run_monitor(scn, tel, variant="C") == clean_c
    # A with a distrusted flow meter runs on the nominal cold flow
    distrusted = smoke_scenario("trust_mdot_c = false\n")
    tel = run_truth_sim(scn)
    clean_a = run_monitor(distrusted, tel)
    tel[70].mdot_c_kg_s, tel[80].mdot_c_kg_s = math.nan, -1.0
    assert run_monitor(distrusted, tel) == clean_a


def test_run_monitor_splits_a_time_gap_into_sample_periods(monkeypatch):
    scn = smoke_scenario()
    tel = run_truth_sim(scn)[:12]
    del tel[6]  # a dropped record leaves a 1 s gap at dt_s = 0.5 s
    calls = []
    real_predict = harness.ekf_predict

    def spy(state, cfg, u, cp, dt):
        out = real_predict(state, cfg, u, cp, dt)
        calls.append((state, cfg, u, cp, dt, out))
        return out

    monkeypatch.setattr(harness, "ekf_predict", spy)
    mon = run_monitor(scn, tel)
    assert [r.t_s for r in mon] == [r.t_s for r in tel]
    assert all(math.isfinite(r.kA_hat_W_K) for r in mon)
    assert [c[4] for c in calls] == [0.5] * 11  # 10 records, the gap takes two
    state, cfg, u, cp, _dt, _out = calls[5]
    for _ in range(2):
        state = real_predict(state, cfg, u, cp, 0.5)
    gap_out = calls[6][5]
    assert calls[6][0] is calls[5][5]
    assert np.array_equal(gap_out.x_hat, state.x_hat)
    assert np.array_equal(gap_out.P, state.P)


def test_run_monitor_variant_overrides():
    scn = smoke_scenario()
    tel = run_truth_sim(scn)[:20]
    mon_b = run_monitor(scn, tel, variant="B")
    hats = [r.mdot_c_hat_kg_s for r in mon_b]
    assert hats[0] == pytest.approx(1.0)  # seeded at mdot_c0
    assert any(h != 1.0 for h in hats[1:])  # estimate actually moves
    mon_c = run_monitor(scn, tel, variant="C")
    assert all(math.isnan(r.innov_c_K) for r in mon_c[1:])  # cold channel unmeasured


# ---------------------------------------------------------------------------
# Metrics


def test_model_free_rating_matches_oracle():
    hot = StreamConfig(CaloricallyPerfect(1000.0), 1e5)
    rec = sample_telemetry()[0]
    z1 = rec.T_h1_K - rec.T_c2_meas_K
    z2 = rec.T_h2_meas_K - rec.T_c1_K
    expect = rec.mdot_h_kg_s * 1000.0 * (rec.T_h1_K - rec.T_h2_meas_K) / log_mean(z1, z2)
    assert model_free_rating(rec, hot) == pytest.approx(expect, rel=1e-12)


def test_model_free_rating_degenerate_nan():
    hot = StreamConfig(CaloricallyPerfect(1000.0), 1e5)
    rec = sample_telemetry()[0]
    rec.T_c2_meas_K = rec.T_h1_K + 0.5  # crossed pinch from noise
    assert math.isnan(model_free_rating(rec, hot))


def test_window_errors_mean_max_and_nan():
    times = [0, 1, 2, 3, 4, 5, 6]
    tru = [100.0] * 7
    est = [110.0, 90.0, math.nan, 105.0, math.nan, math.nan, 200.0]
    means = window_errors(times, est, tru, 0.0, 2.0, agg="mean")
    assert means[0] == pytest.approx(0.1)  # (0.1 + 0.1)/2
    assert means[1] == pytest.approx(0.05)  # NaN skipped
    assert means[2] == math.inf  # nothing valid in [4, 6)
    maxs = window_errors(times, est, tru, 0.0, 2.0, agg="max")
    assert maxs[0] == pytest.approx(0.1)
    with pytest.raises(WindowOutOfRange):
        window_errors(times, est, tru, 5.5, 2.0)
    with pytest.raises(ValueError):
        window_errors(times, est, tru, 0.0, 2.0, agg="median")
    # window_s <= 0 would never advance, a NaN one would fit no window
    for window_s in (0.0, -2.0, math.nan):
        with pytest.raises(ValueError, match="window_s must be positive"):
            window_errors(times, est, tru, 0.0, window_s)
    # a start that is not finite, or a window so small that the start
    # barely moves (1e-300 from 0) or not at all (from 1), gives windows
    # without end
    for t_start in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="t_start must be finite"):
            window_errors(times, est, tru, t_start, 2.0)
    for t_start in (0.0, 1.0):
        with pytest.raises(ValueError, match="window_s = 1e-300 s is too small"):
            window_errors([0.0, 1.0, 2.0], [1.0] * 3, [1.0] * 3, t_start, 1e-300)


def make_mon(t, innov_h=0.0, innov_c=0.0, mdot=41.0):
    return MonitorRecord(t, 350.0, 310.0, 5e4, 6e4, mdot, 3e4,
                         innov_h, innov_c, 0.0, 0.0, "ok")


def test_innovation_means_window_and_nan():
    mon = [make_mon(0.0, math.nan, math.nan),
           make_mon(1.0, 0.2, -0.4),
           make_mon(2.0, 0.4, -0.2),
           make_mon(3.0, 9.0, 9.0)]
    mh, mc = innovation_means(mon, 1.0, 2.0)
    assert mh == pytest.approx(0.3)
    assert mc == pytest.approx(-0.3)
    mh_all, _mc_all = innovation_means(mon, 0.0, 2.0)
    assert mh_all == pytest.approx(0.3)  # NaN record ignored
    assert math.isnan(innovation_means(mon[:1], 0.0)[0])


def test_recovery_time_variants():
    target, tol = 20.5, 0.1
    mon = [make_mon(t, mdot=41.0 - 2.5 * t) for t in range(9)]  # hits 21 at t=8
    mon += [make_mon(9 + k, mdot=20.6) for k in range(4)]
    assert recovery_time(mon, 0.0, target, tol) == 8.0  # 21.0 is within 10%
    never = [make_mon(t, mdot=41.0) for t in range(5)]
    assert recovery_time(never, 0.0, target, tol) is None
    always = [make_mon(t, mdot=20.5) for t in range(5)]
    assert recovery_time(always, 2.0, target, tol) == 2.0
    assert recovery_time(always, 99.0, target, tol) is None  # empty tail


def test_compare_report_smoke():
    scn = smoke_scenario()
    tel = run_truth_sim(scn)
    mon = run_monitor(scn, tel)
    report = compare_report(tel, mon, hot=scn.hot, window_s=20.0, settle_s=10.0)
    assert "thermal rating comparison" in report
    assert "model_kA_relerr" in report and "free_kA_relerr" in report
    assert f"records joined: {len(tel)}" in report
    worst = float(report.split("worst model window relerr:")[1].split()[0])
    assert worst < 0.05  # matched monitor stays tight
    no_free = compare_report(tel, mon, window_s=20.0, settle_s=10.0)
    assert "free_kA_relerr" not in no_free


def test_compare_report_requires_shared_times():
    tel = sample_telemetry()
    mon = [make_mon(99.0)]
    with pytest.raises(ValueError):
        compare_report(tel, mon)


# ---------------------------------------------------------------------------
# Benchmark


def test_bench_models_smoke():
    scn = smoke_scenario()
    res = bench_models(scn, 50)
    assert isinstance(res, BenchResult)
    assert res.n_evals == 50
    assert res.ref_s_per_eval > 0.0 and res.approx_s_per_eval > 0.0
    assert res.speedup == pytest.approx(res.ref_s_per_eval / res.approx_s_per_eval)
    assert res.low_confidence  # below the 100-eval confidence floor
    table = res.as_table()
    assert "reference" in table and "approximate" in table
    assert "speedup" in table and "low eval count" in table
    with pytest.raises(ValueError):
        bench_models(scn, 0)
