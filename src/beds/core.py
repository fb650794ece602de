"""Domain types and scenario validation.

Value records shared by every other module: Gaussian beliefs stored as
(mean, precision), observation records, system and experiment parameters,
and the scenario container that the JSON config format maps onto. No
dynamics logic lives here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

__all__ = [
    "BedsError",
    "ValidationError",
    "NegativeDt",
    "NonPositiveObsPrecision",
    "NonPositivePrecision",
    "NonPositiveParameter",
    "NonMonotonicTime",
    "NonMonotonicFlux",
    "EmptyTrace",
    "EmptySpec",
    "NonPositiveHorizon",
    "UnknownParameterPath",
    "Violation",
    "GaussianBelief",
    "Observation",
    "BedsParams",
    "TargetSpec",
    "EnergyModel",
    "ProblemSpec",
    "PoissonArrival",
    "PeriodicArrival",
    "ScheduleArrival",
    "Arrival",
    "FluxSpec",
    "Scenario",
    "scenario_violations",
    "validate_scenario",
    "scenario_to_dict",
    "scenario_from_dict",
    "scenario_to_json",
    "scenario_from_json",
    "set_path",
]

MAX_SEED = 2**64 - 1


class BedsError(Exception):
    """Base class for all library errors."""


class NegativeDt(BedsError):
    pass


class NonPositiveObsPrecision(BedsError):
    pass


class NonPositivePrecision(BedsError):
    pass


class NonPositiveParameter(BedsError):
    pass


class NonMonotonicTime(BedsError):
    pass


class NonMonotonicFlux(BedsError):
    pass


class EmptyTrace(BedsError):
    pass


class EmptySpec(BedsError):
    pass


class NonPositiveHorizon(BedsError):
    pass


class UnknownParameterPath(BedsError):
    pass


@dataclass(frozen=True)
class Violation:
    """One scenario invariant failure: a machine-readable code plus the field path."""

    code: str  # non_positive_parameter | inconsistent_target | degenerate_horizon | invalid_value
    field: str
    message: str


class ValidationError(BedsError):
    """Raised with the complete list of scenario violations, not just the first."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations))


def _require_finite(obj: object, **values: float) -> None:
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{type(obj).__name__}.{name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GaussianBelief:
    """Belief state N(mean, 1/precision) over a scalar parameter."""

    mean: float
    precision: float  # 1 / variance, must stay > 0

    def __post_init__(self) -> None:
        _require_finite(self, mean=self.mean, precision=self.precision)

    def variance(self) -> float:
        return 1.0 / self.precision

    def std(self) -> float:
        return math.sqrt(1.0 / self.precision)


@dataclass(frozen=True)
class Observation:
    """A timestamped datum with the precision of its Gaussian likelihood."""

    time: float
    value: float
    obs_precision: float

    def __post_init__(self) -> None:
        _require_finite(self, time=self.time, value=self.value, obs_precision=self.obs_precision)


@dataclass(frozen=True)
class BedsParams:
    """System parameters: dissipation rate, crystallization threshold, initial belief."""

    gamma: float  # precision decay rate, 1/time
    epsilon: float  # crystallization variance threshold
    initial_belief: GaussianBelief

    def __post_init__(self) -> None:
        _require_finite(self, gamma=self.gamma, epsilon=self.epsilon)


@dataclass(frozen=True)
class TargetSpec:
    """Inference target: either a fixed value or one drifting at constant velocity.

    The target doubles as a Gaussian reference distribution with variance
    ``target_variance`` so that divergence from it is closed-form; a point
    target is the same record with a small variance, used only for
    mean-accuracy checks.
    """

    kind: str  # "static" | "drifting"
    theta0: float
    velocity: float  # parameter units per time, 0 for static
    target_variance: float

    def __post_init__(self) -> None:
        _require_finite(
            self, theta0=self.theta0, velocity=self.velocity, target_variance=self.target_variance
        )


@dataclass(frozen=True)
class EnergyModel:
    """Per-observation energy pricing: thermodynamic minimum or a flat cost."""

    kind: str  # "landauer_min" | "fixed_cost"
    fixed_cost_value: float = 0.0  # used only for fixed_cost
    kBT: float = 1.0  # single thermal energy scale; 1.0 means natural units

    def __post_init__(self) -> None:
        _require_finite(self, fixed_cost_value=self.fixed_cost_value, kBT=self.kBT)


@dataclass(frozen=True)
class ProblemSpec:
    """Accuracy and power requirements that a run is judged against."""

    target: TargetSpec
    delta: float  # required accuracy: nats for divergence checks, parameter units for mean checks
    p_max: float  # power bound for maintainability
    t0: float = 0.0  # burn-in time excluded from steady-state checks

    def __post_init__(self) -> None:
        _require_finite(self, delta=self.delta, p_max=self.p_max, t0=self.t0)


@dataclass(frozen=True)
class PoissonArrival:
    """Exponentially distributed inter-arrival times at the given rate."""

    rate: float

    kind = "poisson"

    def __post_init__(self) -> None:
        _require_finite(self, rate=self.rate)


@dataclass(frozen=True)
class PeriodicArrival:
    """Evenly spaced arrivals: one observation every ``period`` time units."""

    period: float

    kind = "periodic"

    def __post_init__(self) -> None:
        _require_finite(self, period=self.period)


@dataclass(frozen=True)
class ScheduleArrival:
    """Explicit, non-decreasing list of arrival times."""

    times: tuple[float, ...]

    kind = "schedule"

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        for i, t in enumerate(self.times):
            _require_finite(self, **{f"times[{i}]": t})


Arrival = Union[PoissonArrival, PeriodicArrival, ScheduleArrival]


@dataclass(frozen=True)
class FluxSpec:
    """Recipe for an observation stream against a target.

    ``noise`` selects whether observed values equal the target mean exactly
    or carry Gaussian noise with variance 1/obs_precision, matching the
    likelihood the updates assume.
    """

    arrival: Arrival
    obs_precision: float
    noise: str = "exact"  # "exact" | "noisy"

    def __post_init__(self) -> None:
        _require_finite(self, obs_precision=self.obs_precision)


@dataclass(frozen=True)
class Scenario:
    """Complete, reproducible experiment description."""

    beds: BedsParams
    flux_spec: FluxSpec
    problem: ProblemSpec
    energy_model: EnergyModel
    horizon: float
    sample_dt: float
    seed: int

    def __post_init__(self) -> None:
        _require_finite(self, horizon=self.horizon, sample_dt=self.sample_dt)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"Scenario.seed must be an integer, got {self.seed!r}")


def _positive(value: float, path: str, out: list[Violation]) -> None:
    if not value > 0:
        out.append(
            Violation("non_positive_parameter", path, f"{path} must be > 0, got {value!r}")
        )


def scenario_violations(scenario: Scenario) -> list[Violation]:
    """Collect every invariant violation in a scenario; empty list means valid."""

    out: list[Violation] = []
    beds = scenario.beds
    _positive(beds.gamma, "beds.gamma", out)
    _positive(beds.epsilon, "beds.epsilon", out)
    _positive(beds.initial_belief.precision, "beds.initial_belief.precision", out)

    target = scenario.problem.target
    if target.kind not in ("static", "drifting"):
        out.append(
            Violation(
                "invalid_value",
                "problem.target.kind",
                f"problem.target.kind must be 'static' or 'drifting', got {target.kind!r}",
            )
        )
    elif target.kind == "static" and target.velocity != 0.0:
        out.append(
            Violation(
                "inconsistent_target",
                "problem.target.velocity",
                f"static target cannot have velocity {target.velocity!r}",
            )
        )
    _positive(target.target_variance, "problem.target.target_variance", out)
    _positive(scenario.problem.delta, "problem.delta", out)
    _positive(scenario.problem.p_max, "problem.p_max", out)
    if scenario.problem.t0 < 0:
        out.append(
            Violation(
                "invalid_value", "problem.t0", f"problem.t0 must be >= 0, got {scenario.problem.t0!r}"
            )
        )

    model = scenario.energy_model
    if model.kind not in ("landauer_min", "fixed_cost"):
        out.append(
            Violation(
                "invalid_value",
                "energy_model.kind",
                f"energy_model.kind must be 'landauer_min' or 'fixed_cost', got {model.kind!r}",
            )
        )
    elif model.kind == "fixed_cost":
        _positive(model.fixed_cost_value, "energy_model.fixed_cost_value", out)
    _positive(model.kBT, "energy_model.kBT", out)

    flux = scenario.flux_spec
    arrival = flux.arrival
    if isinstance(arrival, PoissonArrival):
        _positive(arrival.rate, "flux_spec.arrival.rate", out)
    elif isinstance(arrival, PeriodicArrival):
        _positive(arrival.period, "flux_spec.arrival.period", out)
    elif isinstance(arrival, ScheduleArrival):
        if any(b < a for a, b in zip(arrival.times, arrival.times[1:])):
            out.append(
                Violation(
                    "invalid_value",
                    "flux_spec.arrival.times",
                    "schedule times must be non-decreasing",
                )
            )
    else:
        out.append(
            Violation("invalid_value", "flux_spec.arrival", f"unknown arrival {arrival!r}")
        )
    _positive(flux.obs_precision, "flux_spec.obs_precision", out)
    if flux.noise not in ("exact", "noisy"):
        out.append(
            Violation(
                "invalid_value",
                "flux_spec.noise",
                f"flux_spec.noise must be 'exact' or 'noisy', got {flux.noise!r}",
            )
        )

    _positive(scenario.horizon, "horizon", out)
    _positive(scenario.sample_dt, "sample_dt", out)
    if scenario.sample_dt > 0 and scenario.horizon > 0 and scenario.sample_dt >= scenario.horizon:
        out.append(
            Violation(
                "degenerate_horizon",
                "sample_dt",
                f"sample_dt ({scenario.sample_dt!r}) must be < horizon ({scenario.horizon!r})",
            )
        )
    if not 0 <= scenario.seed <= MAX_SEED:
        out.append(
            Violation(
                "invalid_value", "seed", f"seed must fit in an unsigned 64-bit integer, got {scenario.seed!r}"
            )
        )
    return out


def validate_scenario(scenario: Scenario) -> Scenario:
    """Return the scenario unchanged if every invariant holds.

    Raises ValidationError carrying the complete violation list otherwise.
    Idempotent: validating an already validated scenario is a no-op.
    """

    violations = scenario_violations(scenario)
    if violations:
        raise ValidationError(violations)
    return scenario


# --- JSON config format -----------------------------------------------------
#
# Field names in the JSON document match the dataclass fields exactly; the
# arrival variant is tagged with a "kind" key.


def _arrival_to_dict(arrival: Arrival) -> dict:
    if isinstance(arrival, PoissonArrival):
        return {"kind": "poisson", "rate": arrival.rate}
    if isinstance(arrival, PeriodicArrival):
        return {"kind": "periodic", "period": arrival.period}
    if isinstance(arrival, ScheduleArrival):
        return {"kind": "schedule", "times": list(arrival.times)}
    raise ValueError(f"unknown arrival {arrival!r}")


def _arrival_from_dict(raw: dict | None) -> Arrival:
    if not raw:
        raise EmptySpec("flux_spec.arrival is missing")
    kind = raw.get("kind")
    if kind == "poisson":
        _expect_keys(raw, {"kind", "rate"}, "flux_spec.arrival")
        return PoissonArrival(rate=raw["rate"])
    if kind == "periodic":
        _expect_keys(raw, {"kind", "period"}, "flux_spec.arrival")
        return PeriodicArrival(period=raw["period"])
    if kind == "schedule":
        _expect_keys(raw, {"kind", "times"}, "flux_spec.arrival")
        return ScheduleArrival(times=tuple(raw["times"]))
    raise ValueError(f"flux_spec.arrival.kind must be poisson, periodic or schedule, got {kind!r}")


def _expect_keys(raw: dict, allowed: set[str], where: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")
    missing = allowed - set(raw)
    if missing:
        raise ValueError(f"missing field(s) in {where}: {', '.join(sorted(missing))}")


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "beds": {
            "gamma": scenario.beds.gamma,
            "epsilon": scenario.beds.epsilon,
            "initial_belief": {
                "mean": scenario.beds.initial_belief.mean,
                "precision": scenario.beds.initial_belief.precision,
            },
        },
        "flux_spec": {
            "arrival": _arrival_to_dict(scenario.flux_spec.arrival),
            "obs_precision": scenario.flux_spec.obs_precision,
            "noise": scenario.flux_spec.noise,
        },
        "problem": {
            "target": {
                "kind": scenario.problem.target.kind,
                "theta0": scenario.problem.target.theta0,
                "velocity": scenario.problem.target.velocity,
                "target_variance": scenario.problem.target.target_variance,
            },
            "delta": scenario.problem.delta,
            "p_max": scenario.problem.p_max,
            "t0": scenario.problem.t0,
        },
        "energy_model": {
            "kind": scenario.energy_model.kind,
            "fixed_cost_value": scenario.energy_model.fixed_cost_value,
            "kBT": scenario.energy_model.kBT,
        },
        "horizon": scenario.horizon,
        "sample_dt": scenario.sample_dt,
        "seed": scenario.seed,
    }


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from its JSON-shaped dict; strict about field names."""

    _expect_keys(
        raw,
        {"beds", "flux_spec", "problem", "energy_model", "horizon", "sample_dt", "seed"},
        "scenario",
    )
    beds_raw = raw["beds"]
    _expect_keys(beds_raw, {"gamma", "epsilon", "initial_belief"}, "beds")
    _expect_keys(beds_raw["initial_belief"], {"mean", "precision"}, "beds.initial_belief")
    flux_raw = raw["flux_spec"]
    _expect_keys(flux_raw, {"arrival", "obs_precision", "noise"}, "flux_spec")
    problem_raw = raw["problem"]
    _expect_keys(problem_raw, {"target", "delta", "p_max", "t0"}, "problem")
    target_raw = problem_raw["target"]
    _expect_keys(target_raw, {"kind", "theta0", "velocity", "target_variance"}, "problem.target")
    model_raw = raw["energy_model"]
    _expect_keys(model_raw, {"kind", "fixed_cost_value", "kBT"}, "energy_model")

    return Scenario(
        beds=BedsParams(
            gamma=beds_raw["gamma"],
            epsilon=beds_raw["epsilon"],
            initial_belief=GaussianBelief(
                mean=beds_raw["initial_belief"]["mean"],
                precision=beds_raw["initial_belief"]["precision"],
            ),
        ),
        flux_spec=FluxSpec(
            arrival=_arrival_from_dict(flux_raw["arrival"]),
            obs_precision=flux_raw["obs_precision"],
            noise=flux_raw["noise"],
        ),
        problem=ProblemSpec(
            target=TargetSpec(
                kind=target_raw["kind"],
                theta0=target_raw["theta0"],
                velocity=target_raw["velocity"],
                target_variance=target_raw["target_variance"],
            ),
            delta=problem_raw["delta"],
            p_max=problem_raw["p_max"],
            t0=problem_raw["t0"],
        ),
        energy_model=EnergyModel(
            kind=model_raw["kind"],
            fixed_cost_value=model_raw["fixed_cost_value"],
            kBT=model_raw["kBT"],
        ),
        horizon=raw["horizon"],
        sample_dt=raw["sample_dt"],
        seed=raw["seed"],
    )


def set_path(raw: dict, path: str, value: object) -> object:
    """Set the existing field at dotted ``path`` of a scenario dict; return its old value.

    Raises UnknownParameterPath when the path names no field, so an override
    can never add a key that :func:`scenario_from_dict` would reject later.
    """

    keys = path.split(".")
    parent, node = None, raw
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            raise UnknownParameterPath(f"no scenario field at {path!r}")
        parent, node = node, node[key]
    parent[keys[-1]] = value
    return node


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"


def scenario_from_json(text: str) -> Scenario:
    return scenario_from_dict(json.loads(text))
