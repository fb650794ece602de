"""Domain types and scenario validation.

Value records shared by every other module: the initial Gaussian belief
stored as (mean, precision), system and experiment parameters, the scenario
container that the JSON config format maps onto, and the precision floor,
column ``libm`` and row ``blocks`` that every layer's arithmetic shares.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, fields, is_dataclass
from itertools import chain
from typing import Annotated, Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "PRECISION_FLOOR",
    "libm",
    "BedsError",
    "ValidationError",
    "NegativeDt",
    "NonPositiveObsPrecision",
    "NonPositivePrecision",
    "NonPositiveParameter",
    "NonMonotonicTime",
    "NonMonotonicFlux",
    "EmptySpec",
    "NonPositiveHorizon",
    "UnknownParameterPath",
    "Violation",
    "GaussianBelief",
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
    "expected_counts",
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
# Lower clamp on precision: keeps the positivity invariant on pathological
# horizons without changing any realistic result. Engine traces flag runs
# that hit it.
PRECISION_FLOOR = 1e-300
# Most rows of a column held as Python floats at a time: per-event Python
# lists, and the pymalloc arenas they leave resident, set a long run's peak.
BLOCK = 4096


def blocks(n: int) -> Iterator[slice]:
    """The consecutive slices of at most BLOCK rows that cover ``n`` rows."""

    return (slice(lo, lo + BLOCK) for lo in range(0, n, BLOCK))


def libm(f, column: np.ndarray) -> np.ndarray:
    """Scalar ``f`` (a ``math`` function) of each element, as a float64 column.

    NumPy's exp, log, log1p and cos differ from libm's in the last ulp, and
    the golden outputs pin those bits; NumPy's arithmetic around the calls
    is IEEE-exact, so each row is bit-identical to its scalar expression.
    The column is turned into Python floats one block at a time.
    """

    values = chain.from_iterable(map(f, column[rows].tolist()) for rows in blocks(len(column)))
    return np.fromiter(values, np.float64, len(column))


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


class EmptySpec(BedsError):
    pass


class NonPositiveHorizon(BedsError):
    pass


class UnknownParameterPath(BedsError):
    pass


@dataclass(frozen=True)
class Violation:
    """One scenario invariant failure: a machine-readable code, the field path, and the problem."""

    code: str  # non_positive_parameter | inconsistent_target | degenerate_horizon | invalid_value | budget_exceeded
    field: str
    message: str


class ValidationError(BedsError):
    """Raised with the complete list of scenario violations, not just the first."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(f"{v.field}: {v.message}" for v in violations))


class _FieldError(ValueError):
    """A bad value in one field of a record; the scenario reader prefixes the record's path."""

    def __init__(self, obj: object, name: str, problem: str):
        self.name, self.problem = name, problem
        super().__init__(f"{type(obj).__name__}.{name} {problem}")


# --- Field rules ------------------------------------------------------------
#
# Each field's declared type is its rule. A ``float`` must be finite, an
# ``int`` an integer and a ``tuple[float, ...]`` a list of finite reals;
# records check these when built. ``Positive``, ``NonNegative`` and
# ``Literal`` add the domain that scenario_violations reports.


class _Bound(NamedTuple):
    """A float field's lower bound of 0, and the violation code when it fails."""

    code: str
    strict: bool  # > 0 rather than >= 0


Positive = Annotated[float, _Bound("non_positive_parameter", strict=True)]
NonNegative = Annotated[float, _Bound("invalid_value", strict=False)]


def _check_real(obj: object, name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _FieldError(obj, name, f"must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise _FieldError(obj, name, f"must be finite, got {value!r}")


def _check_int(obj: object, name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _FieldError(obj, name, f"must be an integer, got {value!r}")


def _check_reals(obj: object, name: str, value: object) -> None:
    if not isinstance(value, (list, tuple)):
        raise _FieldError(obj, name, f"must be a list of real numbers, got {value!r}")
    for i, item in enumerate(value):
        _check_real(obj, f"{name}[{i}]", item)
    object.__setattr__(obj, name, tuple(float(item) for item in value))


_CHECKS = {float: _check_real, int: _check_int, tuple: _check_reals}


@functools.cache
def _field_types(cls: type) -> dict[str, object]:
    hints = get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in fields(cls)}


@functools.cache
def _field_rules(cls: type) -> tuple[tuple, tuple]:
    """Compile the declared field types of ``cls``, once per class.

    Returns the construction checks, as (name, check) pairs, and the rules
    that scenario_violations reports, as (name, bound, choices, records):
    the bound of a Positive or NonNegative field, the options of a Literal
    one, and the record classes a nested field may hold.
    """

    checks, rules = [], []
    for name, tp in _field_types(cls).items():
        base, *extras = get_args(tp) if get_origin(tp) is Annotated else (tp,)
        check = _CHECKS.get(get_origin(base) or base)
        if check is not None:
            checks.append((name, check))
        bound = extras[0] if extras else None
        choices = get_args(base) if get_origin(base) is Literal else ()
        records = (get_args(base) or (base,)) if base is Arrival or is_dataclass(base) else ()
        if bound or choices or records:
            rules.append((name, bound, choices, records))
    return tuple(checks), tuple(rules)


class _Record:
    """Base of the scenario records: every field is checked against its declared type."""

    def __post_init__(self) -> None:
        checks, _ = _field_rules(type(self))
        for name, check in checks:
            check(self, name, getattr(self, name))


@dataclass(frozen=True)
class GaussianBelief(_Record):
    """Belief state N(mean, 1/precision) over a scalar parameter."""

    mean: float
    precision: Positive  # 1 / variance


@dataclass(frozen=True)
class BedsParams(_Record):
    """System parameters: dissipation rate, crystallization threshold, initial belief."""

    gamma: Positive  # precision decay rate, 1/time
    epsilon: Positive  # crystallization variance threshold
    initial_belief: GaussianBelief


@dataclass(frozen=True)
class TargetSpec(_Record):
    """Inference target: either a fixed value or one drifting at constant velocity.

    The target doubles as a Gaussian reference distribution with variance
    ``target_variance`` so that divergence from it is closed-form; a point
    target is the same record with a small variance, used only for
    mean-accuracy checks.
    """

    kind: Literal["static", "drifting"]
    theta0: float
    velocity: float  # parameter units per time, 0 for static
    target_variance: Positive


@dataclass(frozen=True)
class EnergyModel(_Record):
    """Per-observation energy pricing: thermodynamic minimum or a flat cost."""

    kind: Literal["landauer_min", "fixed_cost"]
    fixed_cost_value: float = 0.0  # used only for fixed_cost, where it must be > 0
    kBT: Positive = 1.0  # single thermal energy scale; 1.0 means natural units


@dataclass(frozen=True)
class ProblemSpec(_Record):
    """Accuracy and power requirements that a run is judged against."""

    target: TargetSpec
    delta: Positive  # required accuracy: nats for divergence checks, parameter units for mean checks
    p_max: Positive  # power bound for maintainability
    t0: NonNegative = 0.0  # burn-in time excluded from steady-state checks


@dataclass(frozen=True)
class PoissonArrival(_Record):
    """Exponentially distributed inter-arrival times at the given rate."""

    rate: Positive

    kind = "poisson"


@dataclass(frozen=True)
class PeriodicArrival(_Record):
    """Evenly spaced arrivals: one observation every ``period`` time units."""

    period: Positive

    kind = "periodic"


@dataclass(frozen=True)
class ScheduleArrival(_Record):
    """Explicit, non-decreasing list of arrival times."""

    times: tuple[float, ...]

    kind = "schedule"


Arrival = Union[PoissonArrival, PeriodicArrival, ScheduleArrival]


@dataclass(frozen=True)
class FluxSpec(_Record):
    """Recipe for an observation stream against a target.

    ``noise`` selects whether observed values equal the target mean exactly
    or carry Gaussian noise with variance 1/obs_precision, matching the
    likelihood the updates assume.
    """

    arrival: Arrival
    obs_precision: Positive
    noise: Literal["exact", "noisy"] = "exact"


@dataclass(frozen=True)
class Scenario(_Record):
    """Complete, reproducible experiment description."""

    beds: BedsParams
    flux_spec: FluxSpec
    problem: ProblemSpec
    energy_model: EnergyModel
    horizon: Positive
    sample_dt: Positive
    seed: int


def _declared_violations(record: object, prefix: str, out: list[Violation]) -> None:
    """Append the violations of the declared rules in ``record``, recursing into nested records."""

    _, rules = _field_rules(type(record))
    for name, bound, choices, records in rules:
        value = getattr(record, name)
        if bound is not None:
            if not (value > 0 if bound.strict else value >= 0):
                op = ">" if bound.strict else ">="
                out.append(Violation(bound.code, prefix + name, f"must be {op} 0, got {value!r}"))
        elif choices:
            if value not in choices:
                allowed = " or ".join(map(repr, choices))
                out.append(Violation("invalid_value", prefix + name, f"must be {allowed}, got {value!r}"))
        elif type(value) in records:
            _declared_violations(value, f"{prefix}{name}.", out)


def expected_counts(scenario: Scenario, horizon: float | None = None) -> list[tuple[str, str, float]]:
    """The generated observations and the samples a run expects over its horizon.

    Returns (field path, "observations" or "samples", count) for each count
    that the field at that path sets: ``rate * horizon`` for a Poisson flux,
    ``horizon / period`` for a periodic one, and ``horizon / sample_dt``. A
    schedule's observations are listed in the scenario and are not counted.
    ``horizon``, when given, replaces the scenario's.
    """

    horizon, arrival = scenario.horizon if horizon is None else horizon, scenario.flux_spec.arrival
    if not horizon > 0:
        return []
    out = []
    if isinstance(arrival, PoissonArrival):
        out.append(("flux_spec.arrival.rate", "observations", arrival.rate * horizon))
    elif isinstance(arrival, PeriodicArrival) and arrival.period > 0:
        out.append(("flux_spec.arrival.period", "observations", horizon / arrival.period))
    if scenario.sample_dt > 0:
        out.append(("sample_dt", "samples", horizon / scenario.sample_dt))
    return out


def _finite_budgets(scenario: Scenario) -> list[tuple[tuple[str, ...], float, str, Callable[[], float]]]:
    """(field paths, value, output quantity, bound) per budget that keeps a run's totals finite.

    The first path is the field reported, with ``value``; the rest are the
    fields with rules of their own that its bound, a thunk, is derived from.
    scenario_violations computes a bound only if none of these fields has
    failed. Counts are 2 * MAX_EXPECTED_COUNT charges or samples.
    """

    n, model, initial = 2 * MAX_EXPECTED_COUNT, scenario.energy_model, scenario.beds.initial_belief
    tau, obs_precision, target = initial.precision, scenario.flux_spec.obs_precision, scenario.problem.target
    arrival, variance = scenario.flux_spec.arrival, target.target_variance
    tau_path, obs_path = "beds.initial_belief.precision", "flux_spec.obs_precision"
    variance_path = "problem.target.target_variance"

    def info() -> float:
        # The most one charge gains: an observation on the lowest precision a
        # run reaches, the floor or a lower initial one. kBT times it is its
        # Landauer price, and the floor a fixed cost is flagged against.
        return 0.5 * math.log1p(obs_precision / min(tau, PRECISION_FLOOR))

    out = []
    if model.kind == "fixed_cost":
        cost = model.fixed_cost_value
        out.append((("energy_model.fixed_cost_value",), cost, f"the energy of {n:.0e} charges", lambda: cost * n))
    if isinstance(arrival, PoissonArrival):
        # The largest inter-arrival time, -ln(1 - u) / rate at the largest uniform.
        quantity = "the largest inter-arrival time"
        out.append((("flux_spec.arrival.rate",), arrival.rate, quantity, lambda: -math.log(2.0**-53) / arrival.rate))
    # The largest gap between the belief's mean and the target's. The mean,
    # theta0 and a drifting target's velocity have no rule of their own; a
    # static target's velocity has one (it must be 0), and is not read.
    velocity = 0.0 if target.kind == "static" else target.velocity
    reach = abs(initial.mean) + 2.0 * (abs(target.theta0) + abs(velocity) * scenario.horizon)
    divergence = "the divergence of a belief at the lowest and highest precision"
    return out + [
        # Observations add far less than the float range to a precision, so
        # the summary's sum of n sample precisions overflows only for a huge
        # initial one; sample row 0 is the initial belief, whose variance
        # overflows for a subnormal one.
        ((tau_path,), tau, f"the sum of {n:.0e} precisions", lambda: tau * n),
        ((tau_path,), tau, "the initial variance", lambda: 1.0 / tau),
        ((obs_path, tau_path), obs_precision, "the information of one charge", info),
        (("energy_model.kBT", obs_path, tau_path), model.kBT, f"the minimum energy of {n:.0e} charges",
         lambda: model.kBT * info() * n),
        # The target's precision, then the divergence's precision ratios in
        # the order kl_gaussian divides: precision_p / precision_q on the
        # lowest precision a run reaches, and precision_q / precision_p on the
        # highest, at most the initial one plus every observation's.
        ((variance_path,), variance, divergence, lambda: 1.0 / variance),
        ((variance_path, tau_path), variance, divergence, lambda: 1.0 / variance / min(tau, PRECISION_FLOOR)),
        ((variance_path, tau_path, obs_path), variance, divergence,
         lambda: (tau + obs_precision * n) / (1.0 / variance)),
        (("problem.target", variance_path, "horizon"), reach,
         "the divergence of a belief that trails it by |mean| + 2 (|theta0| + |velocity| horizon)",
         lambda: reach * reach / variance),
        # bayes_update's precision-weighted sum of the prior mean and a value,
        # both within the reach, at the highest precision.
        ((tau_path, obs_path, "problem.target", "horizon"), tau, "the weighted mean of an update",
         lambda: 2.0 * (tau + obs_precision * n) * reach),
    ]


def scenario_violations(scenario: Scenario) -> list[Violation]:
    """Collect every invariant violation in a scenario; empty list means valid.

    The declared field types give the single-field rules; the rules below
    relate fields to one another. No finiteness budget is derived from a
    field that has failed, or from the horizon once it explains a count over
    budget, so one bad value gives one violation. The horizon is named only
    when it alone explains two counts over budget; each other count is
    reported under the field that sets it.
    """

    out: list[Violation] = []
    _declared_violations(scenario, "", out)

    target = scenario.problem.target
    if target.kind == "static" and target.velocity != 0.0:
        message = f"must be 0 for a static target, got {target.velocity!r}"
        out.append(Violation("inconsistent_target", "problem.target.velocity", message))
    model = scenario.energy_model
    if model.kind == "fixed_cost" and not model.fixed_cost_value > 0:
        message = f"must be > 0, got {model.fixed_cost_value!r}"
        out.append(Violation("non_positive_parameter", "energy_model.fixed_cost_value", message))
    arrival = scenario.flux_spec.arrival
    if isinstance(arrival, ScheduleArrival):
        if any(b < a for a, b in zip(arrival.times, arrival.times[1:])):
            out.append(Violation("invalid_value", "flux_spec.arrival.times", "must be non-decreasing"))
    elif not isinstance(arrival, (PoissonArrival, PeriodicArrival)):
        out.append(Violation("invalid_value", "flux_spec.arrival", f"unknown arrival {arrival!r}"))

    horizon, sample_dt = scenario.horizon, scenario.sample_dt
    if 0 < horizon <= sample_dt:
        message = f"must be < horizon ({horizon!r}), got {sample_dt!r}"
        out.append(Violation("degenerate_horizon", "sample_dt", message))
    over = [
        (path, f"{count:.3g} {what}")
        for path, what, count in expected_counts(scenario)
        if count > MAX_EXPECTED_COUNT
    ]
    # The horizon explains a count whose field keeps it within budget over
    # one time unit; the field explains the others.
    per_unit = {path: count for path, _, count in expected_counts(scenario, 1.0)}
    by_horizon = [per_unit[path] <= MAX_EXPECTED_COUNT for path, _ in over]
    if len(over) > 1 and all(by_horizon):
        # The horizon alone explains them: it is the one field they share.
        over = [("horizon", " and ".join(amount for _, amount in over))]
    for path, amount in over:
        message = f"gives about {amount} over the horizon, above the budget of {MAX_EXPECTED_COUNT:.0e}"
        out.append(Violation("budget_exceeded", path, message))
    failed = {v.field for v in out} | ({"horizon"} if any(by_horizon) else set())
    for paths, value, quantity, bound in _finite_budgets(scenario):
        if failed.isdisjoint(paths) and not math.isfinite(bound()):
            failed.add(paths[0])
            out.append(Violation("budget_exceeded", paths[0], f"must keep {quantity} finite, got {value!r}"))
    if not 0 <= scenario.seed <= MAX_SEED:
        message = f"must fit in an unsigned 64-bit integer, got {scenario.seed!r}"
        out.append(Violation("invalid_value", "seed", message))
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

    Each dict on the path below ``raw`` is copied before the write, and a path
    that names no field raises UnknownParameterPath rather than adding a key.
    """

    keys = path.split(".")
    parent, node = None, raw
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            raise UnknownParameterPath(f"no scenario field at {path!r}")
        parent, node = node, node[key]
        if isinstance(node, dict):
            parent[key] = node = dict(node)
    parent[keys[-1]] = value
    return node


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"


def scenario_from_json(text: str) -> Scenario:
    return scenario_from_dict(json.loads(text))
