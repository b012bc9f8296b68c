"""Scenario schema: the config builders, the input excitation and the
plant-truth conductances.

``load_scenario`` reads a config file into a ``ScenarioConfig``; the
getters in the builders are the schema, so a key no getter asks for is
rejected on its line.  ``inputs_at`` and ``truth_conductances`` give the
inlets and the truth conductances at a time, and ``initial_point`` both
at t = 0.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

from .config import RawConfig, load_config
from .correlations import CorrelationParams, ReferenceCorrelation, reference_alpha_A
from .ekf import EkfConfig
from .fluids import CaloricallyPerfect, StreamConfig, ThermallyPerfect, load_fluid_table
from .reference_model import Conductances, InletConditions, OutletTemps, WallState
from .wall_dynamics import WallDynamicsConfig

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
        return replace(base, **exc.step_targets)
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



def initial_point(scn: ScenarioConfig) -> tuple[InletConditions, Conductances]:
    """Inlets and plant-truth conductances at t = 0, with the inlets as the
    outlets, so the mean cps are taken at the inlet temperatures."""
    u = inputs_at(scn, 0.0)
    return u, truth_conductances(scn, u, 0.0, OutletTemps(u.T_h1, u.T_c1))
