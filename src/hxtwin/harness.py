"""Scenario harness: truth simulation, online monitoring, and comparison.

Ties the pieces together at desk scale: a scenario config defines the
streams, the input excitation, the plant-truth conductance behavior,
and the monitor setup.  ``run_truth_sim`` integrates the reference
model and emits telemetry with seeded measurement noise;
``run_monitor`` replays that telemetry through the joint EKF;
the metric helpers and ``bench_models`` back the comparison and
benchmark reports.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .approx_model import (
    CpParams,
    approx_output,
    approx_steady_selfconsistent,
    approx_steady_terms,
    approx_steady_walls,
    evaluate_approx,
    update_cp_params,
)
from .config import RawConfig, load_config
from .correlations import (
    CorrelationParams,
    ReferenceCorrelation,
    reference_alpha_A,
    serial_conductance,
)
from .ekf import (
    EkfConfig,
    ekf_evaluation,
    ekf_init,
    ekf_predict,
    ekf_update,
    estimate_kA,
    model_inputs,
)
from .fluids import CaloricallyPerfect, StreamConfig, ThermallyPerfect, load_fluid_table
from .means import log_mean
from .reference_model import (
    Conductances,
    InletConditions,
    OutletTemps,
    WallState,
    ref_output,
    ref_steady_outlets,
    steady_wall_temps,
)
from .wall_dynamics import (
    WallDynamicsConfig,
    integrate_step,
    reference_wall_rhs,
)

__all__ = [
    "ExcitationSpec",
    "TruthConductanceSpec",
    "PlantSpec",
    "MonitoringSpec",
    "ScenarioConfig",
    "build_scenario",
    "load_scenario",
    "inputs_at",
    "truth_conductances",
    "initial_point",
    "TelemetryRecord",
    "MonitorRecord",
    "TELEMETRY_COLUMNS",
    "MONITOR_COLUMNS",
    "write_telemetry_csv",
    "read_telemetry_csv",
    "write_monitor_csv",
    "read_monitor_csv",
    "run_truth_sim",
    "run_monitor",
    "model_free_rating",
    "WindowOutOfRange",
    "window_errors",
    "innovation_means",
    "recovery_time",
    "compare_report",
    "BenchResult",
    "bench_models",
]


# ---------------------------------------------------------------------------
# Scenario schema


@dataclass(frozen=True)
class ExcitationSpec:
    """Input excitation on top of the base inlet conditions."""

    kind: str  # constant | step | chirp
    step_time_s: float = 0.0
    step_targets: dict = field(default_factory=dict)
    f0_Hz: float = 0.0
    f1_Hz: float = 0.0
    span_s: float = 1.0
    T_h1_amp_K: float = 0.0
    T_c1_amp_K: float = 0.0
    mdot_h_amp_frac: float = 0.0
    mdot_c_amp_frac: float = 0.0


@dataclass(frozen=True)
class TruthConductanceSpec:
    """How the plant-truth conductances evolve."""

    kind: str  # constant | ramp | correlation
    aA_h_start: float = 0.0
    aA_h_end: float = 0.0
    aA_c_start: float = 0.0
    aA_c_end: float = 0.0
    corr_hot: ReferenceCorrelation | None = None
    corr_cold: ReferenceCorrelation | None = None


@dataclass(frozen=True)
class PlantSpec:
    wall: WallDynamicsConfig  # the filter's wall dynamics too
    noise_std_K: float
    wall_init: WallState | None  # None: settled at t = 0


@dataclass(frozen=True)
class MonitoringSpec:
    ekf: EkfConfig  # its wall is PlantSpec.wall
    upsilon0_h: float  # W/K
    upsilon0_c: float  # W/K
    mdot_c0: float  # kg/s
    cp_model: str  # tracked | constant
    cp_constant_hot: float  # J/(kg K)
    # False models a dead cold flow meter: variant A is fed the stale
    # nominal mdot_c0 instead of the telemetry column.
    trust_mdot_c: bool


@dataclass
class ScenarioConfig:
    name: str
    duration_s: float
    dt_s: float
    seed: int
    hot: StreamConfig
    cold: StreamConfig
    base_inlets: InletConditions
    excitation: ExcitationSpec
    truth_cond: TruthConductanceSpec
    plant: PlantSpec
    monitoring: MonitoringSpec


# (predicate, message) rules that the config getters check values against
_FINITE = (math.isfinite, "must be finite")
_FINITE_POSITIVE = (lambda v: 0.0 < v < math.inf, "must be finite and positive")
_NONNEGATIVE = (lambda v: v >= 0.0, "must be nonnegative")

# config key of each inlet field, in [inputs] and, with a step_ prefix,
# in a step [excitation]
_INLET_KEYS = {
    "T_h1": "T_h1_K", "T_c1": "T_c1_K", "mdot_h": "mdot_h_kg_s", "mdot_c": "mdot_c_kg_s",
}


def _temperature_rule(own: tuple, other: tuple):
    """Rule for an inlet temperature of the (name, stream) own: inside its
    fluid hull, then inside the other stream's, since that stream's outlet
    and the walls lie between the two inlets; finite for constant cp.  The
    message names the hull the value leaves."""
    def fault(T: float) -> str | None:
        for name, stream in (own, other):
            lo, hi = stream.fluid.hull_T
            if math.isinf(hi - lo):
                if not math.isfinite(T):
                    return _FINITE[1]
            elif not lo <= T <= hi:
                return f"must lie in the {name} fluid hull [{lo:g}, {hi:g}] K"
        return None

    return (lambda T: fault(T) is None), fault


def _build_stream(raw: RawConfig, section: str, base_dir: str) -> StreamConfig:
    kind = raw.get_choice(section, "kind", {"perfect", "polynomial", "table"})
    pressure_rule = _FINITE_POSITIVE
    if kind == "perfect":
        fluid = CaloricallyPerfect(raw.get_float(section, "cp_J_kgK", check=_FINITE_POSITIVE))
    elif kind == "polynomial":
        coeffs = raw.get_floats(section, "cp_coeffs")
        hull = raw.get_floats(section, "hull_K", None, check=(
            lambda h: len(h) == 2 and -math.inf < h[0] < h[1] < math.inf,
            "expects two numbers, finite and increasing"))
        kwargs = {"hull_T": hull} if hull is not None else {}
        try:
            fluid = ThermallyPerfect(cp_coeffs=coeffs, **kwargs)
        except ValueError as exc:
            raise raw.error(f"'cp_coeffs' {exc}", raw.line_of(section, "cp_coeffs")) from None
    else:
        rel = raw.get_str(section, "table_path")
        path = rel if os.path.isabs(rel) else os.path.join(base_dir, rel)
        line = raw.line_of(section, "table_path")
        try:
            fluid = load_fluid_table(path)
        except FileNotFoundError:
            raise raw.error(f"fluid table not found: {path}", line) from None
        except ValueError as exc:
            raise raw.error(f"fluid table {path}: {exc}", line) from None
        lo, hi = fluid.hull_p
        pressure_rule = ((lambda p: lo <= p <= hi),
                         f"must lie on the table's pressure axis [{lo:g}, {hi:g}] Pa")
    pressure = raw.get_float(section, "pressure_Pa", check=pressure_rule)
    return StreamConfig(fluid=fluid, pressure=pressure)


def _build_excitation(raw: RawConfig, duration: float, base: InletConditions,
                      rules: dict) -> ExcitationSpec:
    """rules: the getter rule of each inlet field."""
    sec = "excitation"
    kind = raw.get_choice(sec, "kind", {"constant", "step", "chirp"}, "constant")
    if kind == "constant":
        return ExcitationSpec(kind)
    if kind == "step":
        step_time = raw.get_float(sec, "step_time_s", check=_FINITE)
        targets = {}
        for name, key in _INLET_KEYS.items():
            value = raw.get_float(sec, "step_" + key, None, check=rules[name])
            if value is not None:
                targets[name] = value
        if not targets:
            raise raw.error("step excitation needs at least one step_* target",
                            raw.sections.get(sec, 0))
        return ExcitationSpec(kind, step_time_s=step_time, step_targets=targets)

    def swing(name: str):  # the inlet swings by the amplitude either way around its base
        (ok, fault), value = rules[name], getattr(base, name)
        return ((lambda amp: ok(value - amp) and ok(value + amp)),
                lambda amp: f"swings {_INLET_KEYS[name]} = {value:g} out of range: "
                            f"it {fault(value - amp) or fault(value + amp)}")

    fraction = (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")
    return ExcitationSpec(
        kind,
        f0_Hz=raw.get_float(sec, "f0_Hz", 0.0, _FINITE),
        f1_Hz=raw.get_float(sec, "f1_Hz", check=_FINITE),
        span_s=raw.get_float(sec, "span_s", duration, _FINITE_POSITIVE),
        T_h1_amp_K=raw.get_float(sec, "T_h1_amp_K", 0.0, swing("T_h1")),
        T_c1_amp_K=raw.get_float(sec, "T_c1_amp_K", 0.0, swing("T_c1")),
        mdot_h_amp_frac=raw.get_float(sec, "mdot_h_amp_frac", 0.0, fraction),
        mdot_c_amp_frac=raw.get_float(sec, "mdot_c_amp_frac", 0.0, fraction),
    )


def _build_truth_corr(raw: RawConfig, side: str) -> ReferenceCorrelation:
    sec = "truth.conductances"
    return ReferenceCorrelation(
        coefficient=raw.get_float(sec, f"{side}_coefficient_W_K", check=_FINITE_POSITIVE),
        exp_mdot=raw.get_float(sec, f"{side}_exp_mdot", check=_FINITE),
        exp_cp=raw.get_float(sec, f"{side}_exp_cp", check=_FINITE),
        exp_eta=raw.get_float(sec, f"{side}_exp_eta", 0.0, _FINITE),
        exp_lam=raw.get_float(sec, f"{side}_exp_lam", 0.0, _FINITE),
        eta=raw.get_float(sec, f"{side}_eta_Pa_s", 1.0, _FINITE_POSITIVE),
        lam=raw.get_float(sec, f"{side}_lam_W_mK", 1.0, _FINITE_POSITIVE),
    )


def _build_truth_cond(raw: RawConfig) -> TruthConductanceSpec:
    sec = "truth.conductances"
    kind = raw.get_choice(sec, "kind", {"constant", "ramp", "correlation"})
    if kind == "constant":
        aA_h = raw.get_float(sec, "aA_h_W_K", check=_FINITE_POSITIVE)
        aA_c = raw.get_float(sec, "aA_c_W_K", check=_FINITE_POSITIVE)
        return TruthConductanceSpec(kind, aA_h, aA_h, aA_c, aA_c)
    if kind == "ramp":
        return TruthConductanceSpec(kind, *(
            raw.get_float(sec, key, check=_FINITE_POSITIVE)
            for key in ("aA_h_start_W_K", "aA_h_end_W_K", "aA_c_start_W_K", "aA_c_end_W_K")
        ))
    return TruthConductanceSpec(
        kind,
        corr_hot=_build_truth_corr(raw, "hot"),
        corr_cold=_build_truth_corr(raw, "cold"),
    )


def _density(raw: RawConfig, key: str, default, source: tuple, formula: str) -> float:
    """[monitoring.tuning] key, or default() derived by formula from the
    (section, key) source, which is in the file whenever default() fails."""
    value = raw.get_float("monitoring.tuning", key, None, _FINITE_POSITIVE)
    if value is None:
        try:
            value = default()
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            raise raw.error(f"'{source[1]}' gives the default {key} = {formula} = {value!r}, "
                            f"which must be finite and positive; set {key} in "
                            "[monitoring.tuning]", raw.line_of(*source))
    return value


def build_scenario(raw: RawConfig, base_dir: str = ".") -> ScenarioConfig:
    """Assemble and validate a scenario from parsed configuration."""
    duration = raw.get_float("scenario", "duration_s", check=_FINITE_POSITIVE)
    dt = raw.get_float("scenario", "dt_s", check=_FINITE_POSITIVE)
    hot = _build_stream(raw, "streams.hot", base_dir)
    cold = _build_stream(raw, "streams.cold", base_dir)
    rules = {"T_h1": _temperature_rule(("hot", hot), ("cold", cold)),
             "T_c1": _temperature_rule(("cold", cold), ("hot", hot)),
             "mdot_h": _FINITE_POSITIVE, "mdot_c": _FINITE_POSITIVE}
    base_inlets = InletConditions(**{
        name: raw.get_float("inputs", key, check=rules[name])
        for name, key in _INLET_KEYS.items()
    })

    wall_init = None
    if raw.has("plant", "T_w1_init_K") or raw.has("plant", "T_w2_init_K"):
        wall_init = WallState(raw.get_float("plant", "T_w1_init_K", check=_FINITE),
                              raw.get_float("plant", "T_w2_init_K", check=_FINITE))
    wall = WallDynamicsConfig(
        theta7=raw.get_float("plant", "theta7_J_K", check=_FINITE_POSITIVE),
        substeps_per_sample=raw.get_int("plant", "substeps_per_sample", 10,
                                        (lambda n: n >= 1, "must be at least 1")),
    )
    plant = PlantSpec(wall, raw.get_float("plant", "noise_std_K", 0.1, _NONNEGATIVE),
                      wall_init)

    sec, tuning = "monitoring", "monitoring.tuning"
    q_design = raw.get_float(sec, "Q_design_W", check=_FINITE_POSITIVE)
    noise_source = ((tuning, "assumed_noise_std_K") if raw.has(tuning, "assumed_noise_std_K")
                    else ("plant", "noise_std_K"))
    noise = raw.get_float(tuning, "assumed_noise_std_K", plant.noise_std_K, _FINITE_POSITIVE)

    def corr(side: str) -> CorrelationParams:
        return CorrelationParams(raw.get_float(sec, f"exp1_{side}", 0.0, _FINITE),
                                 raw.get_float(sec, f"exp2_{side}", 0.0, _FINITE),
                                 raw.get_float(sec, f"offset_{side}_W_K", 0.0, _FINITE))

    # The default noise densities follow the published tuning: wall
    # process noise scaled from the design duty and wall capacity,
    # parameter and flow random walks with fixed rates, and measurement
    # density from the assumed sensor noise.
    ekf = EkfConfig(
        variant=raw.get_choice(sec, "variant", {"A", "B", "C"}, "A"),
        wall=wall,
        corr_hot=corr("hot"),
        corr_cold=corr("cold"),
        r_x_density=_density(raw, "r_x_density",
                             lambda: 0.1 * (q_design / (100.0 * wall.theta7)) ** 2,
                             (sec, "Q_design_W"), "0.1 (Q_design_W / (100 theta7_J_K))^2"),
        r_upsilon_density=raw.get_float(tuning, "r_upsilon_density", 0.1 * 100.0**2,
                                        _FINITE_POSITIVE),
        r_y_density=_density(raw, "r_y_density", lambda: 1.0 * noise**2,
                             noise_source, f"{noise_source[1]}^2"),
        r_mdot_density=raw.get_float(tuning, "r_mdot_density", 0.1 * 1.0**2, _FINITE_POSITIVE),
    )
    monitoring = MonitoringSpec(
        ekf=ekf,
        upsilon0_h=raw.get_float(sec, "upsilon0_h_W_K", check=_FINITE_POSITIVE),
        upsilon0_c=raw.get_float(sec, "upsilon0_c_W_K", check=_FINITE_POSITIVE),
        mdot_c0=raw.get_float(sec, "mdot_c0_kg_s", base_inlets.mdot_c, _FINITE_POSITIVE),
        cp_model=raw.get_choice(sec, "cp_model", {"tracked", "constant"}, "tracked"),
        cp_constant_hot=raw.get_float(sec, "cp_constant_hot_J_kgK", 2300.0, _FINITE_POSITIVE),
        trust_mdot_c=raw.get_bool(sec, "trust_mdot_c", True),
    )
    scn = ScenarioConfig(
        name=raw.get_str("scenario", "name"),
        duration_s=duration,
        dt_s=dt,
        seed=raw.get_int("scenario", "seed", 0, _NONNEGATIVE),
        hot=hot,
        cold=cold,
        base_inlets=base_inlets,
        excitation=_build_excitation(raw, duration, base_inlets, rules),
        truth_cond=_build_truth_cond(raw),
        plant=plant,
        monitoring=monitoring,
    )
    raw.reject_unasked()
    if scn.truth_cond.kind == "correlation":
        _check_truth_factors(raw, scn)
    return scn


def _check_truth_factors(raw: RawConfig, scn: ScenarioConfig) -> None:
    """Each power in the truth correlations, and each side's conductance,
    must be finite and positive at the start point (the t = 0 inlets, the
    point cps at their temperatures), or the run would fail with no line."""
    u = inputs_at(scn, 0.0)
    for side, corr, stream, mdot, T in (
            ("hot", scn.truth_cond.corr_hot, scn.hot, u.mdot_h, u.T_h1),
            ("cold", scn.truth_cond.corr_cold, scn.cold, u.mdot_c, u.T_c1)):
        cp = stream.fluid.mean_specific_heat(T, T, stream.pressure)
        aA = corr.coefficient  # times each factor, in reference_alpha_A's order
        for name, base in (("mdot", mdot), ("cp", cp), ("eta", corr.eta), ("lam", corr.lam)):
            exp = getattr(corr, f"exp_{name}")
            try:
                value = base**exp
            except OverflowError:
                value = math.inf
            if not 0.0 < value < math.inf:
                key = f"{side}_exp_{name}"
                raise raw.error(f"'{key}' gives the start-point factor {name}^{key} = "
                                f"{base:g}^{exp:g} = {value!r}, which must be finite and "
                                "positive", raw.line_of("truth.conductances", key))
            aA *= value
        if not 0.0 < aA < math.inf:
            key = f"{side}_coefficient_W_K"
            raise raw.error(f"'{key}' gives the start-point conductance aA_{side[0]} = "
                            f"{aA!r} W/K, which must be finite and positive",
                            raw.line_of("truth.conductances", key))


def load_scenario(path) -> ScenarioConfig:
    raw = load_config(path)
    return build_scenario(raw, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# Input excitation and truth conductances


def inputs_at(scn: ScenarioConfig, t: float) -> InletConditions:
    """Inlet conditions at time t under the configured excitation."""
    base = scn.base_inlets
    exc = scn.excitation
    if exc.kind == "constant":
        return base
    if exc.kind == "step":
        if t < exc.step_time_s:
            return base
        values = {
            "T_h1": base.T_h1, "T_c1": base.T_c1,
            "mdot_h": base.mdot_h, "mdot_c": base.mdot_c,
        }
        values.update(exc.step_targets)
        return InletConditions(**values)
    # chirp: quadratic phase sweep from f0 to f1 over span_s, with fixed
    # quarter-turn offsets decorrelating the four channels
    phase = 2.0 * math.pi * (
        exc.f0_Hz * t + (exc.f1_Hz - exc.f0_Hz) * t * t / (2.0 * exc.span_s)
    )
    q = 0.5 * math.pi
    return InletConditions(
        T_h1=base.T_h1 + exc.T_h1_amp_K * math.sin(phase),
        T_c1=base.T_c1 + exc.T_c1_amp_K * math.sin(phase + q),
        mdot_h=base.mdot_h * (1.0 + exc.mdot_h_amp_frac * math.sin(phase + 2.0 * q)),
        mdot_c=base.mdot_c * (1.0 + exc.mdot_c_amp_frac * math.sin(phase + 3.0 * q)),
    )


def truth_conductances(
    scn: ScenarioConfig,
    u: InletConditions,
    t: float,
    outs: OutletTemps,
) -> Conductances:
    """Plant-truth conductances at time t.

    The correlation kind takes the mean cp of each stream from its inlet
    in u to its outlet in outs (the previous-step outlets on the truth
    path); ramps and constants read only t.
    """
    spec = scn.truth_cond
    if spec.kind == "correlation":
        cpm_h = scn.hot.fluid.mean_specific_heat(u.T_h1, outs.T_h2, scn.hot.pressure)
        cpm_c = scn.cold.fluid.mean_specific_heat(u.T_c1, outs.T_c2, scn.cold.pressure)
        return Conductances(
            reference_alpha_A(spec.corr_hot, u.mdot_h, cpm_h),
            reference_alpha_A(spec.corr_cold, u.mdot_c, cpm_c),
        )
    frac = min(max(t / scn.duration_s, 0.0), 1.0)
    return Conductances(
        spec.aA_h_start + frac * (spec.aA_h_end - spec.aA_h_start),
        spec.aA_c_start + frac * (spec.aA_c_end - spec.aA_c_start),
    )


# ---------------------------------------------------------------------------
# Record types and CSV round trip


@dataclass
class TelemetryRecord:
    t_s: float
    T_h1_K: float
    T_c1_K: float
    mdot_h_kg_s: float
    mdot_c_kg_s: float
    T_h2_true_K: float
    T_c2_true_K: float
    T_h2_meas_K: float
    T_c2_meas_K: float
    T_w1_K: float
    T_w2_K: float
    aA_h_W_K: float
    aA_c_W_K: float
    kA_W_K: float
    p_h_Pa: float
    p_c_Pa: float

    def inlets(self) -> InletConditions:
        return InletConditions(
            self.T_h1_K, self.T_c1_K, self.mdot_h_kg_s, self.mdot_c_kg_s
        )


@dataclass
class MonitorRecord:
    t_s: float
    T_w1_hat_K: float
    T_w2_hat_K: float
    upsilon_h_hat_W_K: float
    upsilon_c_hat_W_K: float
    mdot_c_hat_kg_s: float
    kA_hat_W_K: float
    innov_h_K: float
    innov_c_K: float
    eps_h_K: float
    eps_c_K: float
    flags: str


# The CSV columns are the record fields in order; every monitor column
# but the trailing flags is a number.
TELEMETRY_COLUMNS = tuple(f.name for f in fields(TelemetryRecord))
MONITOR_COLUMNS = tuple(f.name for f in fields(MonitorRecord))
_MONITOR_NUMERIC = len(MONITOR_COLUMNS) - 1


def _write_records(records, path, columns: tuple, n_numeric: int) -> None:
    """CSV with the given header, one row per record; the first n_numeric
    fields are written as %.12g, the rest as they are."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow(["%.12g" % getattr(rec, col) for col in columns[:n_numeric]]
                            + [getattr(rec, col) for col in columns[n_numeric:]])


def _read_records(path, kind: str, columns: tuple, n_numeric: int, make) -> list:
    """make(*row) for each row of a CSV with the given header, whose
    first n_numeric fields are numbers; a bad header or row raises
    ValueError naming the file and the line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != columns:
            raise ValueError(f"unexpected {kind} header in {path}: {header}")
        out = []
        for row in reader:
            try:
                if len(row) != len(columns):
                    raise ValueError(f"expected {len(columns)} fields, got {len(row)}")
                out.append(make(*map(float, row[:n_numeric]), *row[n_numeric:]))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        return out


def write_telemetry_csv(records, path) -> None:
    _write_records(records, path, TELEMETRY_COLUMNS, len(TELEMETRY_COLUMNS))


def read_telemetry_csv(path) -> list[TelemetryRecord]:
    return _read_records(path, "telemetry", TELEMETRY_COLUMNS,
                         len(TELEMETRY_COLUMNS), TelemetryRecord)


def write_monitor_csv(records, path) -> None:
    _write_records(records, path, MONITOR_COLUMNS, _MONITOR_NUMERIC)


def read_monitor_csv(path) -> list[MonitorRecord]:
    return _read_records(path, "monitor", MONITOR_COLUMNS, _MONITOR_NUMERIC, MonitorRecord)


# ---------------------------------------------------------------------------
# Truth simulation


def initial_point(scn: ScenarioConfig) -> tuple[InletConditions, Conductances]:
    """Inlets and plant-truth conductances at t = 0, with the inlets as the
    outlets, so the mean cps are taken at the inlet temperatures."""
    u = inputs_at(scn, 0.0)
    return u, truth_conductances(scn, u, 0.0, OutletTemps(u.T_h1, u.T_c1))


def run_truth_sim(scn: ScenarioConfig, seed: int | None = None) -> list[TelemetryRecord]:
    """Simulate the plant with the reference model and seeded noise.

    Inputs and conductances are held over each sample interval
    (zero-order hold); the wall integrates with fixed-step RK4.  The
    noise stream draws two values per record in a fixed order, so a
    given seed reproduces the telemetry bit for bit.
    """
    rng = np.random.default_rng(scn.seed if seed is None else seed)
    wall_cfg = scn.plant.wall
    p_h, p_c = scn.hot.pressure, scn.cold.pressure

    u, cond = initial_point(scn)
    if scn.plant.wall_init is not None:
        x = scn.plant.wall_init
    else:
        steady = ref_steady_outlets(u, cond.kA, scn.hot, scn.cold)
        x = steady_wall_temps(steady, u, cond)
    outs = ref_output(x, u, cond, scn.hot, scn.cold)

    records = []

    def emit(t, u, x, outs, cond):
        noise = rng.standard_normal(2)
        records.append(TelemetryRecord(
            t_s=t, T_h1_K=u.T_h1, T_c1_K=u.T_c1,
            mdot_h_kg_s=u.mdot_h, mdot_c_kg_s=u.mdot_c,
            T_h2_true_K=outs.T_h2, T_c2_true_K=outs.T_c2,
            T_h2_meas_K=outs.T_h2 + scn.plant.noise_std_K * noise[0],
            T_c2_meas_K=outs.T_c2 + scn.plant.noise_std_K * noise[1],
            T_w1_K=x.T_w1, T_w2_K=x.T_w2,
            aA_h_W_K=cond.aA_h, aA_c_W_K=cond.aA_c,
            kA_W_K=serial_conductance(cond.aA_h, cond.aA_c),
            p_h_Pa=p_h, p_c_Pa=p_c,
        ))

    emit(0.0, u, x, outs, cond)
    n_steps = round(scn.duration_s / scn.dt_s)
    for k in range(1, n_steps + 1):
        rhs = reference_wall_rhs(u, cond, scn.hot, scn.cold, wall_cfg, outs)
        x = integrate_step(rhs, x, scn.dt_s, wall_cfg.substeps_per_sample)
        t = k * scn.dt_s
        u = inputs_at(scn, t)
        cond = truth_conductances(scn, u, t, outs)
        outs = ref_output(x, u, cond, scn.hot, scn.cold, guess=outs)
        emit(t, u, x, outs, cond)
    return records


# ---------------------------------------------------------------------------
# Monitoring


def _monitor_streams(scn: ScenarioConfig, cp_model: str) -> tuple[StreamConfig, StreamConfig]:
    if cp_model == "constant":
        hot = StreamConfig(
            CaloricallyPerfect(scn.monitoring.cp_constant_hot), scn.hot.pressure
        )
        return hot, scn.cold
    return scn.hot, scn.cold


def _monitor_cp(
    ekf_cfg: EkfConfig,
    hot: StreamConfig,
    cold: StreamConfig,
    x_v: np.ndarray,
    u: InletConditions,
    prev_out,
    prev_steady,
) -> CpParams:
    """Refresh theta3..theta6 and run the steady cp fixed point at the
    model inputs of the joint state x_v.

    The steady rating kA feeding the fixed point tracks theta5/theta6
    through the monitored correlation, so correlations with a cp
    exponent stay self-consistent.
    """
    # the mean cps read only the inlet temperatures, which the effective
    # inlets share with u
    cp = update_cp_params(hot, cold, u, prev_out, prev_steady)

    u_eff = model_inputs(ekf_cfg, x_v, u, cp)[0]

    def kA_of(cp2: CpParams) -> float:
        return model_inputs(ekf_cfg, x_v, u, cp2)[2].kA

    _outlets, cp, _n = approx_steady_selfconsistent(u_eff, hot, cold, kA_of, cp)
    return cp


def run_monitor(
    scn: ScenarioConfig,
    telemetry: list[TelemetryRecord],
    variant: str | None = None,
    cp_model: str | None = None,
) -> list[MonitorRecord]:
    """Replay telemetry through the joint EKF.

    Per record: refresh the mean specific heats from the previous
    post-update outputs, predict under zero-order-hold previous inputs,
    compare the predicted outputs against the measurements at the new
    inputs, update, and log.  Record 0 only initializes.  eps_* columns
    hold the noise-free prediction errors y_true - y_pred, available
    here because the telemetry carries the true outlets.
    """
    if not telemetry:
        raise ValueError("telemetry is empty")
    mon = scn.monitoring
    ekf_cfg = mon.ekf if variant is None else replace(mon.ekf, variant=variant)
    hot, cold = _monitor_streams(scn, cp_model or mon.cp_model)

    rec0 = telemetry[0]
    estimates_flow = ekf_cfg.n_states == 5

    def filter_inlets(u: InletConditions) -> InletConditions:
        # With a distrusted flow meter, variant A runs on the stale
        # nominal value; B and C substitute their estimate anyway.
        if estimates_flow or mon.trust_mdot_c:
            return u
        return replace(u, mdot_c=mon.mdot_c0)

    u_prev = filter_inlets(rec0.inlets())
    # the walls start at the steady state of the initial parameter states
    state = ekf_init(ekf_cfg, WallState(math.nan, math.nan),
                     (mon.upsilon0_h, mon.upsilon0_c),
                     mdot_c0=mon.mdot_c0 if estimates_flow else None)
    cp = _monitor_cp(ekf_cfg, hot, cold, state.x_hat, u_prev, None, None)
    u0_eff, _cond_out, cond0 = model_inputs(ekf_cfg, state.x_hat, u_prev, cp)
    _souts, wall0 = approx_steady_walls(u0_eff, cond0, cp)
    state.x_hat[:2] = wall0.T_w1, wall0.T_w2

    ev = ekf_evaluation(ekf_cfg, state.x_hat, u_prev, cp)
    prev_out, prev_steady = ev.outlets, ev.steady_outlets

    records = []

    def append_record(t_s, u_k, cp, innov_h, innov_c, eps_h, eps_c, flags) -> None:
        x = state.x_hat
        records.append(MonitorRecord(
            t_s=t_s,
            T_w1_hat_K=float(x[0]), T_w2_hat_K=float(x[1]),
            upsilon_h_hat_W_K=float(x[2]), upsilon_c_hat_W_K=float(x[3]),
            mdot_c_hat_kg_s=float(x[4]) if estimates_flow else u_k.mdot_c,
            kA_hat_W_K=estimate_kA(ekf_cfg, x, u_k, cp),
            innov_h_K=innov_h, innov_c_K=innov_c, eps_h_K=eps_h, eps_c_K=eps_c,
            flags=flags,
        ))

    append_record(rec0.t_s, u_prev, cp, math.nan, math.nan, math.nan, math.nan, "init")

    for rec in telemetry[1:]:
        u_k = filter_inlets(rec.inlets())
        dt = rec.t_s - records[-1].t_s
        if dt <= 0.0:
            raise ValueError(f"telemetry times must increase, got dt={dt} at t={rec.t_s}")
        cp = _monitor_cp(ekf_cfg, hot, cold, state.x_hat, u_k, prev_out, prev_steady)
        # ekf_predict sizes its substeps for one sample period, so a gap
        # in the telemetry is crossed in n predictions of dt / n each
        n = max(1, round(dt / scn.dt_s))
        for _ in range(n):
            state = ekf_predict(state, ekf_cfg, u_prev, cp, dt / n)
        # the spans behind theta3/theta4 lag one sample; refresh them from
        # the predicted outputs at the new inputs before comparing against
        # the measurement (still causal, kills the lag at fast excitation)
        ev_pred = ekf_evaluation(ekf_cfg, state.x_hat, u_k, cp)
        cp = _monitor_cp(ekf_cfg, hot, cold, state.x_hat, u_k,
                         ev_pred.outlets, ev_pred.steady_outlets)
        y_full = (rec.T_h2_meas_K, rec.T_c2_meas_K)
        y_meas = np.array([y_full[i] for i in ekf_cfg.measured_rows])
        state, innov, y_pred = ekf_update(state, ekf_cfg, u_k, cp, y_meas, dt)

        ev = ekf_evaluation(ekf_cfg, state.x_hat, u_k, cp)
        prev_out, prev_steady = ev.outlets, ev.steady_outlets
        tokens = []
        if ev.beta_hot.feasible_set_empty:
            tokens.append("beta_empty_hot")
        if ev.beta_cold.feasible_set_empty:
            tokens.append("beta_empty_cold")
        innov_c = innov[1] if len(innov) > 1 else math.nan
        append_record(
            rec.t_s, u_k, cp, float(innov[0]), float(innov_c),
            rec.T_h2_true_K - float(y_pred[0]), rec.T_c2_true_K - float(y_pred[1]),
            "|".join(tokens) if tokens else "ok",
        )
        u_prev = u_k
    return records


def model_free_rating(rec: TelemetryRecord, hot: StreamConfig) -> float:
    """Direct rating |Hdot_h| / LMTD from one noisy telemetry record.

    Uses measured outlets and no dynamic model at all; returns NaN when
    the temperature differences collapse or invert (the degenerate case
    a storage-aware model avoids).
    """
    z1 = rec.T_h1_K - rec.T_c2_meas_K
    z2 = rec.T_h2_meas_K - rec.T_c1_K
    if z1 <= 0.0 or z2 <= 0.0:
        return math.nan
    dTm = z1 if z1 == z2 else log_mean(z1, z2)
    if dTm <= 0.0:
        return math.nan
    hdot = rec.mdot_h_kg_s * (
        hot.fluid.enthalpy(rec.T_h1_K, rec.p_h_Pa)
        - hot.fluid.enthalpy(rec.T_h2_meas_K, rec.p_h_Pa)
    )
    return abs(hdot) / dTm


# ---------------------------------------------------------------------------
# Metrics


class WindowOutOfRange(ValueError):
    """A requested evaluation window is not covered by the data."""


def window_errors(
    times,
    estimates,
    truths,
    t_start: float,
    window_s: float,
    agg: str = "mean",
) -> list[float]:
    """Relative errors |est - truth|/truth aggregated over consecutive
    windows of width window_s starting at t_start.

    ``agg`` is "mean" or "max"; NaN estimates are skipped, and a window
    with no valid estimate aggregates to inf.  Raises ValueError unless
    window_s > 0, and WindowOutOfRange if not even one full window fits
    after t_start.
    """
    if agg not in ("mean", "max"):
        raise ValueError(f"agg must be 'mean' or 'max', got {agg!r}")
    if not window_s > 0.0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    times = list(times)
    if not times or t_start + window_s > times[-1] + 1e-9:
        raise WindowOutOfRange(
            f"no full window of {window_s} s fits after t={t_start} s "
            f"(data ends at {times[-1] if times else 'nothing'})"
        )
    out = []
    start = t_start
    while start + window_s <= times[-1] + 1e-9:
        errs = [
            abs(est - tru) / abs(tru)
            for t, est, tru in zip(times, estimates, truths)
            if start <= t < start + window_s and not math.isnan(est)
        ]
        if not errs:
            out.append(math.inf)
        elif agg == "mean":
            out.append(sum(errs) / len(errs))
        else:
            out.append(max(errs))
        start += window_s
    return out


def innovation_means(
    monitor: list[MonitorRecord], t_from: float, t_to: float = math.inf
) -> tuple[float, float]:
    """Mean innovation per channel over [t_from, t_to], NaN-aware."""
    hs = [r.innov_h_K for r in monitor
          if t_from <= r.t_s <= t_to and not math.isnan(r.innov_h_K)]
    cs = [r.innov_c_K for r in monitor
          if t_from <= r.t_s <= t_to and not math.isnan(r.innov_c_K)]
    mean_h = sum(hs) / len(hs) if hs else math.nan
    mean_c = sum(cs) / len(cs) if cs else math.nan
    return mean_h, mean_c


def recovery_time(
    monitor: list[MonitorRecord],
    t_event: float,
    target: float,
    rel_tol: float,
) -> float | None:
    """First time after t_event from which mdot_c_hat stays within
    rel_tol of target for the rest of the run; None if it never settles."""
    tail = [r for r in monitor if r.t_s >= t_event]
    if not tail:
        return None
    last_outside = None
    for i, r in enumerate(tail):
        if abs(r.mdot_c_hat_kg_s - target) > rel_tol * abs(target):
            last_outside = i
    if last_outside is None:
        return tail[0].t_s
    if last_outside == len(tail) - 1:
        return None
    return tail[last_outside + 1].t_s


def compare_report(
    telemetry: list[TelemetryRecord],
    monitor: list[MonitorRecord],
    hot: StreamConfig | None = None,
    window_s: float = 300.0,
    settle_s: float = 300.0,
) -> str:
    """Plain-text comparison of monitored rating vs truth.

    Joins the two series on time, tabulates per-window relative kA
    errors (model-based, and model-free when a hot stream is given for
    the enthalpy evaluation), and summarizes innovations over the final
    third of the run.
    """
    mon_by_t = {r.t_s: r for r in monitor}
    times, est, tru = [], [], []
    for rec in telemetry:
        m = mon_by_t.get(rec.t_s)
        if m is None:
            continue
        times.append(rec.t_s)
        est.append(m.kA_hat_W_K)
        tru.append(rec.kA_W_K)
    if not times:
        raise ValueError("telemetry and monitor share no timestamps")
    t0 = times[0] + settle_s
    model_errs = window_errors(times, est, tru, t0, window_s, agg="mean")
    lines = [
        "thermal rating comparison",
        f"records joined: {len(times)}",
        f"settling skipped: {settle_s:g} s, window: {window_s:g} s",
        "",
        "window  t_from_s  t_to_s  model_kA_relerr",
    ]
    free_errs = None
    if hot is not None:
        free = [model_free_rating(rec, hot) for rec in telemetry
                if rec.t_s in mon_by_t]
        free_errs = window_errors(times, free, tru, t0, window_s, agg="mean")
        lines[-1] += "  free_kA_relerr"
    for j, err in enumerate(model_errs):
        row = (f"{j:6d}  {t0 + j * window_s:8g}  {t0 + (j + 1) * window_s:6g}"
               f"  {err:15.6f}")
        if free_errs is not None:
            row += f"  {free_errs[j]:14.6f}"
        lines.append(row)
    span = times[-1] - times[0]
    t_tail = times[-1] - span / 3.0
    mean_h, mean_c = innovation_means(monitor, t_tail)
    lines += [
        "",
        f"final-third mean innovation: hot {mean_h:.6g} K, cold {mean_c:.6g} K",
        f"worst model window relerr: {max(model_errs):.6f}",
    ]
    if free_errs is not None:
        finite = [e for e in free_errs if math.isfinite(e)]
        worst = max(finite) if finite else math.inf
        lines.append(f"worst model-free window relerr: {worst:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Benchmarking


@dataclass(frozen=True)
class BenchResult:
    n_evals: int
    ref_s_per_eval: float
    approx_s_per_eval: float
    speedup: float
    low_confidence: bool

    def as_table(self) -> str:
        rows = [
            ("model", "evals", "s/eval", "evals/s"),
            ("reference", str(self.n_evals), f"{self.ref_s_per_eval:.3e}",
             f"{1.0 / self.ref_s_per_eval:.3e}"),
            ("approximate", str(self.n_evals), f"{self.approx_s_per_eval:.3e}",
             f"{1.0 / self.approx_s_per_eval:.3e}"),
        ]
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                 for r in rows]
        lines.append(f"speedup (reference / approximate): {self.speedup:.1f}x")
        if self.low_confidence:
            lines.append("warning: low eval count, timing confidence is poor")
        return "\n".join(lines) + "\n"


def bench_models(
    scn: ScenarioConfig,
    n_evals: int,
) -> BenchResult:
    """Time transient output evaluations of both models.

    Uses the scenario's base operating point with the wall displaced
    from steady state, cycling small deterministic input perturbations
    so neither path can exploit repeated identical calls.  The timed
    approximate unit is the closed-form approx_output call with its beta
    selections precomputed per input variant.  The monitor loop does not
    make this call: it selects beta in every evaluate_approx call, so its
    speedup over ref_output is smaller (``perfbench/run.py --trace 1``
    reports it as approx_model.in_loop_speedup).
    """
    if n_evals < 1:
        raise ValueError("n_evals must be at least 1")
    u0, cond = initial_point(scn)
    steady = ref_steady_outlets(u0, cond.kA, scn.hot, scn.cold)
    xs = steady_wall_temps(steady, u0, cond)
    x = WallState(xs.T_w1 + 2.0, xs.T_w2 - 2.0)
    cp = update_cp_params(scn.hot, scn.cold, u0, steady, steady)

    variants = [
        replace(u0, T_h1=u0.T_h1 + 0.03 * (k % 7), T_c1=u0.T_c1 - 0.02 * (k % 5))
        for k in range(32)
    ]
    betas = []
    for u in variants:
        ev = evaluate_approx(x, u, cond, cp, approx_steady_terms(u, cond, cp))
        betas.append((ev.beta_hot, ev.beta_cold))

    t0 = time.perf_counter()
    for k in range(n_evals):
        ref_output(x, variants[k % 32], cond, scn.hot, scn.cold)
    t_ref = time.perf_counter() - t0

    t0 = time.perf_counter()
    for k in range(n_evals):
        i = k % 32
        approx_output(x, variants[i], cond, cp, *betas[i])
    t_approx = time.perf_counter() - t0

    ref_per = t_ref / n_evals
    approx_per = t_approx / n_evals
    return BenchResult(
        n_evals=n_evals,
        ref_s_per_eval=ref_per,
        approx_s_per_eval=approx_per,
        speedup=ref_per / approx_per if approx_per > 0.0 else math.inf,
        low_confidence=n_evals < 100,
    )
