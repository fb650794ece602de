import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beds
from beds.core import (
    BedsError,
    BedsParams,
    EnergyModel,
    FluxSpec,
    GaussianBelief,
    NegativeDt,
    NonPositiveObsPrecision,
    ProblemSpec,
    ScheduleArrival,
    Scenario,
    TargetSpec,
    UnknownParameterPath,
    ValidationError,
)
from beds.dynamics import NOT_CRYSTALLIZED, bayes_update, check_crystallization, propagate
from beds.energy import gaussian_entropy
from beds import engine
from beds.engine import run, sweep, trace_to_csv
from beds.fluxgen import FLUX_FIELDS, target_mean_at
from beds.scenarios import (
    dissipation_only,
    drifting_tracking,
    static_crystallizing,
    steady_state,
)
from ledger_oracles import ReferenceLedger, energy_up_to, ledger_state, observation_cost, windowed_power


def single_observation_scenario(gamma: float = 1e-12) -> Scenario:
    return Scenario(
        beds=BedsParams(gamma=gamma, epsilon=1e-9, initial_belief=GaussianBelief(0.0, 1.0)),
        flux_spec=FluxSpec(arrival=ScheduleArrival(times=(1.0,)), obs_precision=1.0, noise="exact"),
        problem=ProblemSpec(
            target=TargetSpec(kind="static", theta0=0.0, velocity=0.0, target_variance=1.0),
            delta=0.5,
            p_max=1.0,
            t0=0.0,
        ),
        energy_model=EnergyModel(kind="landauer_min", fixed_cost_value=0.0, kBT=1.0),
        horizon=2.0,
        sample_dt=0.5,
        seed=3,
    )


# --- run --------------------------------------------------------------------------


def test_dissipation_only_run():
    trace = run(dissipation_only())
    assert trace.samples["t"][0] == 0.0
    assert trace.samples["t"][-1] == 10.0
    assert trace.samples["precision"][-1] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert trace.ledger.cumulative_energy == 0.0
    assert len(trace.events) == 0
    assert not trace.outcome.crystallized
    assert not trace.clamped


def test_single_observation_run():
    # Negligible dissipation: one unit-precision observation doubles the
    # precision and books half a nat of information.
    trace = run(single_observation_scenario())
    assert trace.samples["precision"][-1] == pytest.approx(2.0, rel=1e-9)
    assert len(trace.ledger) == 1
    assert trace.ledger.times.tolist() == [1.0]
    assert trace.ledger.infos[0] == pytest.approx(0.5 * math.log(2.0), rel=1e-9)
    assert trace.ledger.energies[0] == pytest.approx(0.5 * math.log(2.0), rel=1e-9)
    assert len(trace.events) == 1


def test_dynamics_level_composition_without_dissipation():
    # The same composition with the decay switched off entirely is exact.
    precision = beds.propagate(1.0, 1.0, 0.0)
    assert precision == 1.0
    _, updated = beds.bayes_update(0.0, precision, 0.0, 1.0)
    assert updated == 2.0
    assert beds.info_gain(1.0, 1.0) == pytest.approx(0.5 * math.log(2.0), rel=1e-12)


def test_observation_cost_uses_pre_update_precision():
    scenario = single_observation_scenario(gamma=0.5)
    trace = run(scenario)
    tau_before = float(trace.events["precision_before"][0])
    assert tau_before == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert trace.ledger.infos[0] == pytest.approx(
        0.5 * math.log1p(1.0 / tau_before), rel=1e-12
    )


def test_crystallizing_run_halts():
    scenario = static_crystallizing()
    trace = run(scenario)
    assert trace.outcome.crystallized
    assert trace.outcome.accurate
    t_halt = trace.outcome.time
    # The halting observation is the last one charged: nothing is recorded after it.
    assert trace.ledger.times[-1] == t_halt
    assert len(trace.events) == len(trace.ledger)
    assert trace.samples["t"][-1] <= t_halt
    assert t_halt < scenario.horizon


def test_run_is_deterministic():
    scenario = steady_state(seed=77)
    a = run(scenario)
    b = run(scenario)
    assert np.array_equal(a.samples.view(np.float64).reshape(len(a.samples), -1),
                          b.samples.view(np.float64).reshape(len(b.samples), -1))
    for name in ("times", "energies", "infos"):
        assert getattr(a.ledger, name).tolist() == getattr(b.ledger, name).tolist()
    assert np.array_equal(a.events, b.events)
    assert a.outcome == b.outcome


def test_sampling_density_does_not_perturb_dynamics():
    base = beds.scenario_to_dict(drifting_tracking())
    coarse = beds.scenario_from_dict({**base, "sample_dt": 0.25})
    fine = beds.scenario_from_dict({**base, "sample_dt": 0.05})
    trace_coarse = run(coarse)
    trace_fine = run(fine)
    assert trace_coarse.ledger.times.tolist() == trace_fine.ledger.times.tolist()
    assert np.array_equal(trace_coarse.events, trace_fine.events)
    assert trace_coarse.ledger.cumulative_energy == trace_fine.ledger.cumulative_energy
    assert trace_coarse.outcome == trace_fine.outcome
    # Shared sample instants agree exactly.
    coarse_at_1 = trace_coarse.samples[trace_coarse.samples["t"] == 1.0]
    fine_at_1 = trace_fine.samples[trace_fine.samples["t"] == 1.0]
    assert coarse_at_1["precision"][0] == fine_at_1["precision"][0]
    assert coarse_at_1["mean"][0] == fine_at_1["mean"][0]


def test_windowed_power_column_matches_ledger():
    scenario = static_crystallizing()
    trace = run(scenario)
    for row in trace.samples[:: max(1, len(trace.samples) // 7)]:
        expected = windowed_power(trace.ledger, float(row["t"]), trace.power_window)
        assert row["windowed_power"] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_cumulative_energy_column_is_causal():
    trace = run(static_crystallizing())
    for row in trace.samples[:: max(1, len(trace.samples) // 7)]:
        assert row["cumulative_energy"] == pytest.approx(
            energy_up_to(trace.ledger, float(row["t"])), rel=1e-12, abs=1e-15
        )


def test_run_ledger_satisfies_landauer_consistency():
    scenario = steady_state(seed=5)
    trace = run(scenario)
    kbt = scenario.energy_model.kBT
    recomputed = sum(
        kbt * (gaussian_entropy(tau_before) - gaussian_entropy(tau_after))
        for tau_before, tau_after in zip(
            trace.events["precision_before"].tolist(), trace.events["precision_after"].tolist()
        )
    )
    assert trace.ledger.cumulative_energy == pytest.approx(recomputed, rel=1e-9)


def test_summary_fields():
    scenario = steady_state(seed=9)
    trace = run(scenario)
    summary = trace.summary
    after = trace.samples["t"] > scenario.problem.t0
    assert summary.observation_count == len(trace.ledger)
    assert summary.mean_precision_after_t0 == pytest.approx(
        float(np.mean(trace.samples["precision"][after])), rel=1e-12
    )
    assert summary.total_energy == trace.ledger.cumulative_energy
    assert summary.total_info == trace.ledger.cumulative_info


def test_precision_floor_sets_clamped_flag():
    scenario = beds.scenario_from_dict(
        {
            **beds.scenario_to_dict(dissipation_only()),
            "beds": {"gamma": 10.0, "epsilon": 1e-6, "initial_belief": {"mean": 0.0, "precision": 1.0}},
            "horizon": 100.0,
            "sample_dt": 1.0,
        }
    )
    trace = run(scenario)
    assert trace.clamped
    assert trace.samples["precision"][-1] == beds.dynamics.PRECISION_FLOOR


def test_run_with_no_sample_after_t0_summarizes_nan():
    # steady_state burns in until t0 = 1000, past this horizon.
    trace = run(replace(steady_state(), horizon=200.0))
    summary = trace.summary
    assert trace.samples["t"][-1] <= 200.0 < steady_state().problem.t0
    assert math.isnan(summary.mean_precision_after_t0)
    assert math.isnan(summary.max_kl_after_t0)
    assert math.isnan(summary.mean_windowed_power_after_t0)
    assert summary.observation_count > 0


def test_run_validates_scenario_first():
    raw = beds.scenario_to_dict(dissipation_only())
    raw["beds"]["gamma"] = 0.0
    with pytest.raises(ValidationError):
        run(beds.scenario_from_dict(raw))


def test_trace_csv_shape():
    trace = run(dissipation_only())
    lines = trace_to_csv(trace).strip().split("\n")
    assert lines[0] == "t,mean,precision,variance,kl_to_target,cumulative_energy,windowed_power"
    assert len(lines) == 1 + len(trace.samples)
    assert lines[1].startswith("0,0,1,1,0,")


def test_csv_writers_allocate_under_two_and_a_half_times_their_text():
    # The writers convert one block of rows at a time: beyond the finished
    # text, they hold its parts and one block's Python scalars.
    trace = run(replace(steady_state(), horizon=19999.0))
    assert len(trace.samples) == 20_000
    for name in ("times", "energies", "infos", "cumulative"):
        column = getattr(trace.ledger, name)
        assert isinstance(column, np.ndarray) and column.dtype == np.float64
    tracemalloc.start()
    try:
        for write in (lambda: trace_to_csv(trace), trace.ledger.to_csv):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            text = write()
            allocated = tracemalloc.get_traced_memory()[1] - held
            assert allocated < 2.5 * len(text)
            del text
    finally:
        tracemalloc.stop()


# --- sweep ------------------------------------------------------------------------


def test_sweep_empty_grid_counts_replicates():
    base = dissipation_only(seed=10)
    table = sweep(base, [], replicates=3)
    assert len(table.rows) == 3
    assert [row["seed"] for row in table.rows] == [10, 11, 12]
    assert [row["replicate"] for row in table.rows] == [0, 1, 2]


def test_sweep_rows_are_grid_major_replicate_minor():
    base = dissipation_only(seed=0)
    table = sweep(
        base,
        [("beds.gamma", [0.1, 0.2]), ("horizon", [5.0, 10.0])],
        replicates=2,
    )
    key = [(row["beds.gamma"], row["horizon"], row["replicate"]) for row in table.rows]
    assert key == [
        (0.1, 5.0, 0), (0.1, 5.0, 1),
        (0.1, 10.0, 0), (0.1, 10.0, 1),
        (0.2, 5.0, 0), (0.2, 5.0, 1),
        (0.2, 10.0, 0), (0.2, 10.0, 1),
    ]


def test_sweep_applies_values():
    base = dissipation_only()
    table = sweep(base, [("beds.gamma", [0.1, 0.3])], replicates=1)
    final = {row["beds.gamma"]: row["mean_precision_after_t0"] for row in table.rows}
    assert final[0.3] < final[0.1]


def test_sweep_unknown_path():
    with pytest.raises(UnknownParameterPath):
        sweep(dissipation_only(), [("beds.nope", [1.0])], replicates=1)
    with pytest.raises(UnknownParameterPath):
        sweep(dissipation_only(), [("flux_spec.noise", [1.0])], replicates=1)


def test_sweep_csv_layout():
    table = sweep(dissipation_only(), [("beds.gamma", [0.1])], replicates=1)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == (
        "beds.gamma,replicate,seed,mean_precision_after_t0,max_kl_after_t0,"
        "mean_windowed_power_after_t0,observation_count,total_energy,total_info"
    )
    assert len(lines) == 2


def test_sweep_replicates_must_be_positive():
    with pytest.raises(ValueError, match="^replicates: must be >= 1, got 0$"):
        sweep(dissipation_only(), [], replicates=0)


def test_sweep_rejects_seed_as_grid_path():
    # Replicate i runs at base.seed + i, so a seed grid would be overwritten.
    with pytest.raises(UnknownParameterPath, match="^seed: .*base.seed \\+ i"):
        sweep(dissipation_only(), [("seed", [5.0, 6.0])], replicates=1)


class _FirstRun(Exception):
    pass


def _refuse_runs(*args, **kwargs):
    raise _FirstRun


def test_sweep_total_work_above_budget_is_rejected_before_any_run(monkeypatch):
    # steady_state expects 1e4 observations and 1e4 samples per run, so
    # 5001 replicates of one cell exceed MAX_SWEEP_COUNT = 1e8.
    monkeypatch.setattr("beds.engine.run", _refuse_runs)
    assert engine.MAX_SWEEP_COUNT == 10**8
    with pytest.raises(ValueError, match="^replicates: "):
        sweep(steady_state(), [], replicates=5001)
    with pytest.raises(ValueError, match="^replicates: "):
        sweep(steady_state(), [("beds.gamma", [0.1, 0.2])], replicates=2501)
    with pytest.raises(ValueError, match="^replicates: "):
        sweep(steady_state(), [], replicates=100_000_000)


def test_sweep_total_work_at_budget_starts_running(monkeypatch):
    monkeypatch.setattr("beds.engine.run", _refuse_runs)
    with pytest.raises(_FirstRun):
        sweep(steady_state(), [], replicates=5000)
    with pytest.raises(_FirstRun):
        sweep(steady_state(), [("beds.gamma", [0.1, 0.2])], replicates=2500)


# --- flux replay --------------------------------------------------------------------


def test_replayed_flux_reproduces_generated_run():
    from beds.fluxgen import flux_from_csv, flux_to_csv, generate_flux

    scenario = static_crystallizing()
    flux = generate_flux(
        scenario.flux_spec, scenario.problem.target, scenario.horizon, scenario.seed
    )
    replayed = flux_from_csv(flux_to_csv(flux))
    direct = run(scenario)
    via_replay = run(scenario, observations=replayed)
    assert np.array_equal(
        direct.samples.view(np.float64).reshape(len(direct.samples), -1),
        via_replay.samples.view(np.float64).reshape(len(via_replay.samples), -1),
    )
    assert direct.ledger.times.tolist() == via_replay.ledger.times.tolist()
    assert np.array_equal(direct.events, via_replay.events)
    assert direct.outcome == via_replay.outcome


def _flux(rows):
    return np.array(rows, dtype=[(name, np.float64) for name in FLUX_FIELDS])


def test_replayed_flux_must_be_time_ordered():
    from beds.core import NonMonotonicFlux

    scenario = dissipation_only()
    bad = _flux([(2.0, 0.0, 1.0), (1.0, 0.0, 1.0)])
    with pytest.raises(NonMonotonicFlux):
        run(scenario, observations=bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", FLUX_FIELDS)
def test_replayed_flux_rejects_non_finite_cells_naming_row_and_column(column, value):
    flux = _flux([(1.0, 0.0, 1.0), (2.0, 0.0, 1.0), (3.0, 0.0, 1.0)])
    flux[column][1] = value
    with pytest.raises(ValueError, match=f"flux row 1: {column} must be finite"):
        run(dissipation_only(), observations=flux)


@pytest.mark.parametrize(
    "flux",
    [
        np.zeros(3),
        [(1.0, 0.0, 1.0), (2.0, 0.0, 1.0)],
        _flux([(1.0, 0.0, 1.0), (2.0, 0.0, 1.0)]).reshape(2, 1),
        np.zeros(2, dtype=[("time", np.float64), ("value", np.float64)]),
        np.zeros(2, dtype=[(name, np.int64) for name in FLUX_FIELDS]),
    ],
    ids=["plain-array", "list-of-tuples", "2-d", "missing-field", "int-fields"],
)
def test_replayed_flux_must_be_a_structured_array(flux):
    with pytest.raises(ValueError, match="1-D structured array with float fields time, value, obs_precision"):
        run(dissipation_only(), observations=flux)


def test_replayed_zero_obs_precision_is_rejected():
    from beds.core import NonPositiveObsPrecision

    with pytest.raises(NonPositiveObsPrecision):
        run(dissipation_only(), observations=_flux([(1.0, 0.0, 1.0), (2.0, 0.0, 0.0)]))


# --- columnar kernel against the per-step API ----------------------------------------


def _scalar_reference(scenario, flux):
    """Apply ``flux`` one observation at a time with the scalar per-step API.

    Returns the event rows, the reference ledger charged row by row and the
    outcome. A run whose totals are not finite raises ``ValidationError``.
    """

    initial = scenario.beds.initial_belief
    mean, precision = initial.mean, initial.precision
    ledger = ReferenceLedger(kBT=scenario.energy_model.kBT)
    events = []
    outcome = NOT_CRYSTALLIZED
    state_t = 0.0
    for t, value, obs_precision in flux.tolist():
        precision = propagate(precision, t - state_t, scenario.beds.gamma)
        state_t = t
        mean_after, precision_after = bayes_update(mean, precision, value, obs_precision)
        ledger.charge(t, *observation_cost(scenario.energy_model, precision, obs_precision))
        events.append((precision, mean_after, precision_after))
        mean, precision = mean_after, precision_after
        outcome = check_crystallization(
            mean,
            precision,
            t,
            scenario.beds.epsilon,
            target_mean_at(scenario.problem.target, t),
            scenario.problem.delta,
        )
        if outcome.crystallized:
            break
    if not (math.isfinite(ledger.cumulative_energy) and math.isfinite(ledger.cumulative_info)):
        raise ValidationError([])
    return events, ledger, outcome


def _replay_scenario(gamma, epsilon, initial_precision, energy_model):
    scenario = single_observation_scenario(gamma)
    return replace(
        scenario,
        beds=BedsParams(gamma=gamma, epsilon=epsilon, initial_belief=GaussianBelief(0.5, initial_precision)),
        problem=replace(
            scenario.problem,
            target=TargetSpec(kind="drifting", theta0=0.0, velocity=0.3, target_variance=1.0),
        ),
        energy_model=energy_model,
        horizon=20.0,
        # A replay never reads the spec's obs_precision. At 1e-3 the largest gain
        # of one charge stays finite on a 1e-310 initial belief, so it validates.
        flux_spec=replace(scenario.flux_spec, obs_precision=1e-3),
    )


def _assert_run_matches_scalar_reference(scenario, flux):
    try:
        events, ledger, outcome = _scalar_reference(scenario, flux)
    except BedsError as exc:
        with pytest.raises(type(exc)):
            run(scenario, observations=flux)
        return type(exc)
    trace = run(scenario, observations=flux)
    assert trace.events.tolist() == events
    assert ledger_state(trace.ledger) == ledger_state(ledger)
    assert (trace.summary.total_energy, trace.summary.total_info) == (
        ledger.cumulative_energy,
        ledger.cumulative_info,
    )
    assert trace.outcome == outcome
    return None


LANDAUER = EnergyModel(kind="landauer_min", fixed_cost_value=0.0, kBT=1.0)
FIXED = EnergyModel(kind="fixed_cost", fixed_cost_value=0.2, kBT=0.7)


@pytest.mark.parametrize(
    "gamma, epsilon, initial_precision, model, rows, raises",
    [
        # dt == 0 rows, first at t = 0 on a belief below the floor: left unclamped.
        (0.5, 1e-9, 1e-310, LANDAUER, [(0.0, 1.0, 1e-320), (0.0, 2.0, 1e-305), (1.0, 0.0, 2.0), (1.0, 1.0, 3.0)], None),
        # gamma * dt far past exp's range: the precision clamps at the floor.
        (1e3, 1e-9, 1.0, LANDAUER, [(1.0, 1.0, 1e-3), (5.0, 1.0, 1e-3), (9.0, 0.0, 0.5)], None),
        # The first update crystallizes: the run halts on row 0.
        (0.1, 2.0, 1.0, LANDAUER, [(0.5, 0.2, 10.0), (1.0, 0.3, 10.0)], None),
        (0.1, 1e-9, 1.0, FIXED, [(0.5, 0.2, 100.0), (1.0, 0.3, 0.01), (3.0, 0.3, 1.0)], None),
        # A non-positive obs_precision raises at or before the halting row ...
        (0.1, 1e-9, 1.0, LANDAUER, [(0.5, 0.2, 1.0), (1.0, 0.3, 0.0)], NonPositiveObsPrecision),
        (0.1, 1e-9, 1.0, LANDAUER, [(0.5, 0.2, -1.0)], NonPositiveObsPrecision),
        # ... and is never read after it.
        (0.1, 2.0, 1.0, LANDAUER, [(0.5, 0.2, 10.0), (1.0, 0.3, -1.0)], None),
        # A first arrival before the belief's time 0 is a negative step.
        (0.1, 1e-9, 1.0, LANDAUER, [(-1.0, 0.2, 1.0)], NegativeDt),
    ],
    ids=["dt-zero", "floor-clamp", "halt-row-0", "fixed-cost", "zero-obs-precision",
         "negative-obs-precision", "bad-row-after-halt", "negative-dt"],
)
def test_run_matches_scalar_reference_on_edge_cases(gamma, epsilon, initial_precision, model, rows, raises):
    scenario = _replay_scenario(gamma, epsilon, initial_precision, model)
    assert _assert_run_matches_scalar_reference(scenario, _flux(rows)) is raises


@st.composite
def _replays(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    gaps = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.5, 2.0, 7.0]), min_size=n, max_size=n))
    rows = [
        (t, draw(st.floats(min_value=-10.0, max_value=10.0)), draw(st.sampled_from([1e-3, 0.5, 4.0, 1e3, 0.0, -2.0])))
        for t in itertools.accumulate(gaps)
    ]
    scenario = _replay_scenario(
        gamma=draw(st.sampled_from([1e-6, 0.1, 3.0, 1e3])),
        epsilon=draw(st.sampled_from([1e-9, 0.05, 0.5, 2.0])),
        initial_precision=draw(st.sampled_from([1e-310, 1e-3, 1.0, 50.0])),
        energy_model=draw(st.sampled_from([LANDAUER, FIXED])),
    )
    return scenario, _flux(rows)


@given(_replays())
@settings(max_examples=300, deadline=None)
# A belief below the floor has a variance past the largest float: its samples overflow.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_run_matches_scalar_reference(case):
    _assert_run_matches_scalar_reference(*case)


@pytest.mark.parametrize("model", [LANDAUER, FIXED], ids=["landauer", "fixed-cost"])
def test_replay_with_an_infinite_charge_is_rejected(model):
    # 0.5 / 1e-310 is past the float range: the first charge gains inf nats.
    scenario = _replay_scenario(1e-6, 1e-9, 1e-310, model)
    with pytest.raises(ValidationError) as info:
        run(scenario, observations=_flux([(0.0, 0.0, 0.5), (1.0, 0.0, 1e-3)]))
    [violation] = info.value.violations
    assert (violation.code, violation.field) == ("budget_exceeded", "observations")


# --- mutation detection -------------------------------------------------------------


def test_broken_propagation_is_caught_by_steady_state_check(monkeypatch):
    # Flip the decay direction inside the engine's kernel: the balance check must fail.
    from beds import dynamics, verify

    def broken_evolve(mean, precision, times, values, obs_precisions, gamma, epsilon):
        return dynamics.evolve(mean, precision, times, values, obs_precisions, -gamma, epsilon)

    monkeypatch.setattr("beds.engine.evolve", broken_evolve)
    passed, _ = verify.check_steady_state_balance(verify.DEFAULT_SEED_BASE)
    assert not passed
