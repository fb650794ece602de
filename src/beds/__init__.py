"""Dissipative Bayesian belief maintenance.

A library for simulating scalar Gaussian beliefs that lose precision
exponentially between observations and regain it through conjugate updates,
with thermodynamic accounting of the information each observation buys.
Closed-form steady-state laws (required observation rate, minimum power,
optimal per-observation precision) live alongside the simulator so the two
can be checked against each other.
"""

from .analysis import (
    ClassEvidence,
    ClassVerdict,
    SteadyStatePrediction,
    classify_run,
    kl_gaussian,
    optimal_obs_precision,
    p_min_exact,
    p_min_linear,
    required_rate,
    steady_state_prediction,
)
from .core import (
    Arrival,
    BedsError,
    BedsParams,
    EmptySpec,
    EmptyTrace,
    EnergyModel,
    FluxSpec,
    GaussianBelief,
    NegativeDt,
    NonMonotonicFlux,
    NonMonotonicTime,
    NonPositiveHorizon,
    NonPositiveObsPrecision,
    NonPositiveParameter,
    NonPositivePrecision,
    PeriodicArrival,
    PoissonArrival,
    ProblemSpec,
    ScheduleArrival,
    Scenario,
    TargetSpec,
    UnknownParameterPath,
    ValidationError,
    Violation,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_dict,
    scenario_to_json,
    scenario_violations,
    validate_scenario,
)
from .dynamics import (
    PRECISION_FLOOR,
    CrystallizationOutcome,
    bayes_update,
    check_crystallization,
    is_crystallized,
    propagate,
)
from .energy import (
    EnergyLedger,
    gaussian_entropy,
    info_gain,
    landauer_min_energy,
    observation_cost,
)
from .engine import RunTrace, Summary, SweepTable, run, summary_to_dict, sweep, trace_to_csv
from .fluxgen import flux_from_csv, flux_to_csv, generate_flux, target_mean_at

__version__ = "0.1.0"
