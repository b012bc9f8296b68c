"""hxtwin: digital twin toolkit for counterflow heat exchangers.

Three layers:

* an accurate reference model that resolves nonlinear fluid properties
  by iterative root search (plant truth and validation);
* a one-step approximate model built on weighted temperature-difference
  means (fast path for online use);
* a joint extended Kalman filter that tracks wall temperatures and heat
  transfer parameters from noisy outlet measurements, yielding a live
  estimate of the thermal rating kA.

The harness module wires these into scenario-driven experiments with a
CSV/config file interface; the `hxtwin` console script exposes them.
"""

from .approx_model import (
    ApproxEvaluation,
    BetaBranch,
    BetaSelection,
    CpParams,
    SideSubstitution,
    approx_output,
    approx_steady,
    approx_steady_walls,
    beta_lm_value,
    evaluate_approx,
    g_closed_form,
    select_beta,
    update_cp_params,
)
from .config import ConfigError, load_config, parse_config
from .correlations import (
    CorrelationParams,
    NonPositiveConductanceError,
    ReferenceCorrelation,
    alpha_A,
    reference_alpha_A,
    serial_conductance,
)
from .ekf import (
    DimensionMismatchError,
    EkfConfig,
    EkfState,
    SingularInnovationCovarianceError,
    ekf_init,
    ekf_predict,
    ekf_update,
    estimate_kA,
    model_inputs,
)
from .fluids import (
    CaloricallyPerfect,
    FluidModel,
    NonMonotonicAxisError,
    OutOfRangeError,
    ParseError,
    StreamConfig,
    Tabulated,
    ThermallyPerfect,
    load_fluid_table,
    save_fluid_table,
)
from .harness import (
    MonitorRecord,
    ScenarioConfig,
    TelemetryRecord,
    bench_models,
    build_scenario,
    load_scenario,
    model_free_rating,
    run_monitor,
    run_truth_sim,
)
from .means import (
    DomainError,
    arith_mean,
    geom_mean,
    heat_rate,
    log_mean,
    weighted_mean,
)
from .reference_model import (
    BracketError,
    Conductances,
    InletConditions,
    NoSolutionError,
    OutletTemps,
    UniquenessReport,
    WallState,
    ref_output,
    ref_steady_outlets,
    steady_wall_temps,
    verify_uniqueness,
)
from .wall_dynamics import (
    Sector,
    WallDynamicsConfig,
    classify_sector,
    integrate_step,
    wall_rhs,
)

__version__ = "0.1.0"
