"""Domain types and scenario validation.

Value records shared by every other module: Gaussian beliefs stored as
(mean, precision), observation records, system and experiment parameters,
and the scenario container that the JSON config format maps onto. No
dynamics logic lives here.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Union, get_args, get_type_hints

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
# Most observations or samples a scenario may expect over its horizon: ten
# times the largest benchmark run, so a typo such as rate=1e9 is rejected
# before anything is allocated rather than run until memory runs out.
MAX_EXPECTED_COUNT = 10**6


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

    code: str  # non_positive_parameter | inconsistent_target | degenerate_horizon | invalid_value | budget_exceeded
    field: str
    message: str


class ValidationError(BedsError):
    """Raised with the complete list of scenario violations, not just the first."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations))


class _FieldError(ValueError):
    """A bad value in one field of a record; the scenario reader prefixes the record's path."""

    def __init__(self, obj: object, name: str, problem: str):
        self.name, self.problem = name, problem
        super().__init__(f"{type(obj).__name__}.{name} {problem}")


def _require_finite(obj: object, **values: float) -> None:
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _FieldError(obj, name, f"must be a real number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise _FieldError(obj, name, f"must be finite, got {value!r}")


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
        if not isinstance(self.times, (list, tuple)):
            raise _FieldError(self, "times", f"must be a list of real numbers, got {self.times!r}")
        for i, t in enumerate(self.times):
            _require_finite(self, **{f"times[{i}]": t})
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))


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
            raise _FieldError(self, "seed", f"must be an integer, got {self.seed!r}")


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
    if scenario.horizon > 0:
        expected = []
        if isinstance(arrival, PoissonArrival):
            expected.append(("flux_spec.arrival.rate", "observations", arrival.rate * scenario.horizon))
        elif isinstance(arrival, PeriodicArrival) and arrival.period > 0:
            expected.append(("flux_spec.arrival.period", "observations", scenario.horizon / arrival.period))
        if scenario.sample_dt > 0:
            expected.append(("sample_dt", "samples", scenario.horizon / scenario.sample_dt))
        for path, what, count in expected:
            if count > MAX_EXPECTED_COUNT:
                out.append(
                    Violation(
                        "budget_exceeded",
                        path,
                        f"{path} gives about {count:.3g} {what} over the horizon, "
                        f"above the budget of {MAX_EXPECTED_COUNT:.0e}",
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
# The dataclasses above are the schema: JSON keys are their field names, and
# the arrival variant is tagged with its class's ``kind``.

_ARRIVALS = {cls.kind: cls for cls in get_args(Arrival)}


@functools.cache
def _field_types(cls: type) -> dict[str, object]:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _from_dict(cls: object, raw: object, prefix: str) -> object:
    """Build the record ``cls`` from the JSON object ``raw``.

    ``prefix`` is the record's dotted path plus a dot ("" for the scenario
    itself); every error message starts with the path of the bad field.
    """

    if not isinstance(raw, dict):
        raise ValueError(f"{prefix.rstrip('.') or 'scenario'}: must be an object, got {raw!r}")
    if cls is Arrival:
        raw = dict(raw)
        kind = raw.pop("kind", None)
        cls = _ARRIVALS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"{prefix}kind: must be one of {', '.join(_ARRIVALS)}, got {kind!r}")
    types = _field_types(cls)
    problems = [f"{prefix}{key}: unknown field" for key in sorted(raw.keys() - types, key=str)]
    problems += [f"{prefix}{key}: missing field" for key in types if key not in raw]
    if problems:
        raise ValueError("; ".join(problems))
    values = {}
    for name, tp in types.items():
        value = raw[name]
        if tp is Arrival or is_dataclass(tp):
            value = _from_dict(tp, value, f"{prefix}{name}.")
        values[name] = value
    try:
        return cls(**values)
    except _FieldError as exc:
        raise ValueError(f"{prefix}{exc.name}: {exc.problem}") from exc


def _json_object(items: list[tuple[str, object]]) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value for key, value in items}


def scenario_to_dict(scenario: Scenario) -> dict:
    out = asdict(scenario, dict_factory=_json_object)
    out["flux_spec"]["arrival"]["kind"] = scenario.flux_spec.arrival.kind
    return out


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from its JSON-shaped dict; strict about field names.

    Raises ValueError whose message starts with the dotted path of a
    malformed field, as in ``flux_spec.arrival: must be an object, got [1]``.
    """

    return _from_dict(Scenario, raw, prefix="")


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
