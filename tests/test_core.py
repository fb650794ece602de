import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beds.core import (
    MAX_EXPECTED_COUNT,
    BedsError,
    BedsParams,
    EnergyModel,
    FluxSpec,
    GaussianBelief,
    PeriodicArrival,
    PoissonArrival,
    ProblemSpec,
    ScheduleArrival,
    Scenario,
    TargetSpec,
    ValidationError,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_dict,
    scenario_to_json,
    scenario_violations,
    set_path,
    validate_scenario,
)
from beds.scenarios import (
    dissipation_only,
    drifting_tracking,
    static_crystallizing,
    steady_state,
    tracking_sweep_base,
)


def make_scenario(**kwargs) -> Scenario:
    base = dict(
        beds=BedsParams(gamma=0.5, epsilon=1e-4, initial_belief=GaussianBelief(0.0, 1.0)),
        flux_spec=FluxSpec(arrival=PoissonArrival(rate=2.0), obs_precision=1.0, noise="noisy"),
        problem=ProblemSpec(
            target=TargetSpec(kind="static", theta0=1.0, velocity=0.0, target_variance=0.5),
            delta=0.1,
            p_max=1.0,
            t0=1.0,
        ),
        energy_model=EnergyModel(kind="landauer_min", fixed_cost_value=0.0, kBT=1.0),
        horizon=10.0,
        sample_dt=0.1,
        seed=7,
    )
    base.update(kwargs)
    return Scenario(**base)


def test_valid_scenario_passes_and_is_identity():
    scenario = make_scenario()
    assert validate_scenario(scenario) is scenario


def test_validation_is_idempotent():
    scenario = make_scenario()
    once = validate_scenario(scenario)
    assert validate_scenario(once) is once


@pytest.mark.parametrize(
    "bad, field",
    [
        (dict(beds=BedsParams(gamma=0.0, epsilon=1e-4, initial_belief=GaussianBelief(0.0, 1.0))), "beds.gamma"),
        (dict(beds=BedsParams(gamma=0.5, epsilon=0.0, initial_belief=GaussianBelief(0.0, 1.0))), "beds.epsilon"),
        (dict(beds=BedsParams(gamma=0.5, epsilon=1e-4, initial_belief=GaussianBelief(0.0, -1.0))), "beds.initial_belief.precision"),
        (dict(flux_spec=FluxSpec(arrival=PoissonArrival(rate=0.0), obs_precision=1.0, noise="noisy")), "flux_spec.arrival.rate"),
        (dict(flux_spec=FluxSpec(arrival=PoissonArrival(rate=1.0), obs_precision=0.0, noise="noisy")), "flux_spec.obs_precision"),
        (dict(horizon=-1.0), "horizon"),
        (dict(problem=ProblemSpec(target=TargetSpec("static", 1.0, 0.0, 0.0), delta=0.1, p_max=1.0)), "problem.target.target_variance"),
        (dict(problem=ProblemSpec(target=TargetSpec("static", 1.0, 0.0, 0.5), delta=0.0, p_max=1.0)), "problem.delta"),
        (dict(problem=ProblemSpec(target=TargetSpec("static", 1.0, 0.0, 0.5), delta=0.1, p_max=-1.0)), "problem.p_max"),
        (dict(energy_model=EnergyModel(kind="landauer_min", kBT=0.0)), "energy_model.kBT"),
        (dict(flux_spec=FluxSpec(arrival=PeriodicArrival(period=0.0), obs_precision=1.0)), "flux_spec.arrival.period"),
        (dict(sample_dt=0.0), "sample_dt"),
    ],
)
def test_non_positive_parameters_are_reported(bad, field):
    with pytest.raises(ValidationError) as excinfo:
        validate_scenario(make_scenario(**bad))
    assert any(v.code == "non_positive_parameter" and v.field == field for v in excinfo.value.violations)


def test_static_target_with_velocity_is_inconsistent():
    problem = ProblemSpec(
        target=TargetSpec(kind="static", theta0=0.0, velocity=1.0, target_variance=0.5),
        delta=0.1,
        p_max=1.0,
        t0=0.0,
    )
    violations = scenario_violations(make_scenario(problem=problem))
    assert [v.code for v in violations] == ["inconsistent_target"]


def test_degenerate_horizon():
    violations = scenario_violations(make_scenario(sample_dt=10.0))
    assert [v.code for v in violations] == ["degenerate_horizon"]
    violations = scenario_violations(make_scenario(sample_dt=11.0))
    assert [v.code for v in violations] == ["degenerate_horizon"]


def test_all_violations_are_collected_not_just_first():
    scenario = make_scenario(
        beds=BedsParams(gamma=0.0, epsilon=0.0, initial_belief=GaussianBelief(0.0, 1.0)),
        sample_dt=10.0,
    )
    violations = scenario_violations(scenario)
    fields = {v.field for v in violations}
    assert {"beds.gamma", "beds.epsilon", "sample_dt"} <= fields
    assert len(violations) >= 3


def test_unknown_kinds_are_invalid():
    scenario = make_scenario(
        energy_model=EnergyModel(kind="free_lunch", fixed_cost_value=0.0, kBT=1.0),
        flux_spec=FluxSpec(arrival=PoissonArrival(rate=1.0), obs_precision=1.0, noise="maybe"),
        problem=ProblemSpec(
            target=TargetSpec(kind="wobbling", theta0=1.0, velocity=0.0, target_variance=0.5),
            delta=0.1,
            p_max=1.0,
            t0=-1.0,
        ),
    )
    assert sorted((v.code, v.field, v.message) for v in scenario_violations(scenario)) == [
        ("invalid_value", "energy_model.kind", "must be 'landauer_min' or 'fixed_cost', got 'free_lunch'"),
        ("invalid_value", "flux_spec.noise", "must be 'exact' or 'noisy', got 'maybe'"),
        ("invalid_value", "problem.t0", "must be >= 0, got -1.0"),
        ("invalid_value", "problem.target.kind", "must be 'static' or 'drifting', got 'wobbling'"),
    ]


def test_fixed_cost_requires_positive_value():
    scenario = make_scenario(energy_model=EnergyModel(kind="fixed_cost", fixed_cost_value=0.0, kBT=1.0))
    assert any(v.field == "energy_model.fixed_cost_value" for v in scenario_violations(scenario))


def test_fixed_cost_that_overflows_the_running_energy_is_over_budget():
    def fixed_cost(kind, value):
        return make_scenario(energy_model=EnergyModel(kind=kind, fixed_cost_value=value, kBT=1.0))

    violations = scenario_violations(fixed_cost("fixed_cost", 1e308))
    assert [(v.code, v.field) for v in violations] == [("budget_exceeded", "energy_model.fixed_cost_value")]
    assert scenario_violations(fixed_cost("fixed_cost", 1e300)) == []
    assert scenario_violations(fixed_cost("landauer_min", 1e308)) == []


def _with_precisions(initial: float, obs: float) -> Scenario:
    return make_scenario(
        beds=BedsParams(gamma=0.5, epsilon=1e-4, initial_belief=GaussianBelief(0.0, initial)),
        flux_spec=FluxSpec(arrival=PoissonArrival(rate=2.0), obs_precision=obs, noise="noisy"),
    )


def test_obs_precision_whose_largest_gain_overflows_is_over_budget():
    over = [("budget_exceeded", "flux_spec.obs_precision")]
    # obs_precision / PRECISION_FLOOR leaves the float range just above 1.8e8.
    assert [(v.code, v.field) for v in scenario_violations(_with_precisions(1.0, 1e9))] == over
    assert scenario_violations(_with_precisions(1.0, 1e8)) == []
    # An initial precision below the floor is the lowest one, as a schedule may observe at t = 0.
    assert [(v.code, v.field) for v in scenario_violations(_with_precisions(1e-310, 1.0))] == over
    assert scenario_violations(_with_precisions(1e-310, 1e-3)) == []


def test_kbt_that_overflows_the_minimum_energy_is_over_budget():
    def model(kind, kBT):
        return make_scenario(energy_model=EnergyModel(kind=kind, fixed_cost_value=1.0, kBT=kBT))

    for kind in ("landauer_min", "fixed_cost"):
        violations = scenario_violations(model(kind, 1e308))
        assert [(v.code, v.field) for v in violations] == [("budget_exceeded", "energy_model.kBT")]
        assert scenario_violations(model(kind, 1e290)) == []


def test_initial_precision_that_overflows_the_sample_mean_is_over_budget():
    violations = scenario_violations(_with_precisions(1e308, 1.0))
    assert [(v.code, v.field) for v in violations] == [("budget_exceeded", "beds.initial_belief.precision")]
    assert scenario_violations(_with_precisions(1e300, 1.0)) == []


def test_target_beyond_a_finite_divergence_is_over_budget():
    def drifting(velocity):
        target = TargetSpec(kind="drifting", theta0=1.0, velocity=velocity, target_variance=0.5)
        return make_scenario(problem=ProblemSpec(target=target, delta=0.1, p_max=1.0, t0=1.0))

    for velocity in (1e308, -1e160):
        violations = scenario_violations(drifting(velocity))
        assert [(v.code, v.field) for v in violations] == [("budget_exceeded", "problem.target")]
    assert scenario_violations(drifting(1e100)) == []


def test_seed_must_fit_64_bits():
    assert any(v.field == "seed" for v in scenario_violations(make_scenario(seed=2**64)))
    assert any(v.field == "seed" for v in scenario_violations(make_scenario(seed=-1)))
    assert scenario_violations(make_scenario(seed=2**64 - 1)) == []


@pytest.mark.parametrize(
    "changes, field",
    [
        (dict(flux_spec=FluxSpec(arrival=PoissonArrival(rate=1e9), obs_precision=1.0, noise="noisy")), "flux_spec.arrival.rate"),
        (dict(flux_spec=FluxSpec(arrival=PeriodicArrival(period=1e-6), obs_precision=1.0, noise="noisy")), "flux_spec.arrival.period"),
        (dict(sample_dt=1e-6), "sample_dt"),
    ],
)
def test_expected_counts_above_budget_are_rejected(changes, field):
    violations = scenario_violations(make_scenario(**changes))
    assert [(v.code, v.field) for v in violations] == [("budget_exceeded", field)]


def test_expected_counts_at_budget_are_accepted():
    horizon = 10.0
    scenario = make_scenario(
        flux_spec=FluxSpec(
            arrival=PoissonArrival(rate=MAX_EXPECTED_COUNT / horizon), obs_precision=1.0, noise="noisy"
        ),
        horizon=horizon,
        sample_dt=horizon / MAX_EXPECTED_COUNT,
    )
    assert scenario_violations(scenario) == []


def test_schedule_times_must_be_non_decreasing():
    flux = FluxSpec(arrival=ScheduleArrival(times=(2.0, 1.0)), obs_precision=1.0, noise="exact")
    assert any(v.field == "flux_spec.arrival.times" for v in scenario_violations(make_scenario(flux_spec=flux)))


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int_beyond_float")]
)
def test_constructors_reject_non_finite_reals(value):
    with pytest.raises(ValueError):
        GaussianBelief(mean=value, precision=1.0)
    with pytest.raises(ValueError):
        GaussianBelief(mean=0.0, precision=value)
    with pytest.raises(ValueError):
        BedsParams(gamma=value, epsilon=1.0, initial_belief=GaussianBelief(0.0, 1.0))
    with pytest.raises(ValueError):
        TargetSpec(kind="static", theta0=0.0, velocity=0.0, target_variance=value)
    with pytest.raises(ValueError):
        EnergyModel(kind="landauer_min", fixed_cost_value=0.0, kBT=value)
    with pytest.raises(ValueError):
        ProblemSpec(
            target=TargetSpec(kind="static", theta0=0.0, velocity=0.0, target_variance=1.0),
            delta=value,
            p_max=1.0,
        )
    with pytest.raises(ValueError):
        PoissonArrival(rate=value)
    with pytest.raises(ValueError):
        make_scenario(horizon=value)
    with pytest.raises(ValueError):
        TargetSpec(kind="static", theta0=value, velocity=0.0, target_variance=1.0)
    with pytest.raises(ValueError):
        TargetSpec(kind="drifting", theta0=0.0, velocity=value, target_variance=1.0)
    with pytest.raises(ValueError):
        EnergyModel(kind="fixed_cost", fixed_cost_value=value)
    target = TargetSpec(kind="static", theta0=0.0, velocity=0.0, target_variance=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(target=target, delta=0.1, p_max=value)
    with pytest.raises(ValueError):
        ProblemSpec(target=target, delta=0.1, p_max=1.0, t0=value)
    with pytest.raises(ValueError):
        FluxSpec(arrival=PoissonArrival(rate=1.0), obs_precision=value)
    with pytest.raises(ValueError):
        PeriodicArrival(period=value)
    with pytest.raises(ValueError):
        make_scenario(sample_dt=value)
    with pytest.raises(ValueError, match=r"times\[1\]"):
        ScheduleArrival(times=[1.0, value])


def test_seed_must_be_integer():
    with pytest.raises(ValueError):
        make_scenario(seed=1.5)


@pytest.mark.parametrize(
    "builder", [static_crystallizing, drifting_tracking, steady_state]
)
def test_json_round_trip_is_exact(builder):
    scenario = builder()
    restored = scenario_from_json(scenario_to_json(scenario))
    assert restored == scenario
    assert scenario_to_dict(restored) == scenario_to_dict(scenario)


def test_round_trip_preserves_noneven_floats():
    scenario = make_scenario(horizon=10.1, sample_dt=0.012345678901234567)
    assert scenario_from_json(scenario_to_json(scenario)) == scenario


def test_unknown_fields_rejected():
    raw = scenario_to_dict(make_scenario())
    raw["extra"] = 1
    with pytest.raises(ValueError, match="extra"):
        scenario_from_dict(raw)
    raw = scenario_to_dict(make_scenario())
    raw["beds"]["typo"] = 1
    with pytest.raises(ValueError, match="typo"):
        scenario_from_dict(raw)


def test_missing_fields_rejected():
    raw = scenario_to_dict(make_scenario())
    del raw["problem"]["delta"]
    with pytest.raises(ValueError, match="delta"):
        scenario_from_dict(raw)


def test_arrival_variants_round_trip():
    for arrival in (PoissonArrival(2.0), PeriodicArrival(0.5), ScheduleArrival((0.5, 1.0, 1.0))):
        scenario = make_scenario(
            flux_spec=FluxSpec(arrival=arrival, obs_precision=1.0, noise="exact")
        )
        assert scenario_from_json(scenario_to_json(scenario)).flux_spec.arrival == arrival


def test_shipped_scenario_files_match_builders():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    for name, builder in [
        ("dissipation_only", dissipation_only),
        ("static_crystallizing", static_crystallizing),
        ("steady_state", steady_state),
        ("drifting_tracking", drifting_tracking),
        ("tracking_sweep_base", tracking_sweep_base),
    ]:
        text = (root / f"{name}.json").read_text()
        assert scenario_from_json(text) == builder()


def test_to_json_emits_sorted_stable_document():
    scenario = make_scenario()
    first = scenario_to_json(scenario)
    second = scenario_to_json(scenario)
    assert first == second
    assert json.loads(first)["seed"] == 7


def _paths(node, prefix=""):
    for key, value in node.items():
        path = f"{prefix}{key}"
        yield path
        if isinstance(value, dict):
            yield from _paths(value, path + ".")


_SHIPPED = [scenario_to_dict(builder()) for builder in (dissipation_only, steady_state, drifting_tracking)]
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["poisson", "periodic", "schedule", "static", "exact", "fixed_cost"])
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "rate", "period", "times", "mean", "x"]), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_scenario_loads_or_fails_naming_a_field_path(data):
    raw = copy.deepcopy(data.draw(st.sampled_from(_SHIPPED)))
    path = data.draw(st.sampled_from(list(_paths(raw))))
    set_path(raw, path, data.draw(_JSON))
    try:
        validate_scenario(scenario_from_dict(raw))
    except ValidationError as exc:
        assert {v.field for v in exc.violations} <= set(_paths(raw))
    except (ValueError, BedsError) as exc:
        assert str(exc).split(":")[0].split(".")[0] == path.split(".")[0]
