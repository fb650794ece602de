import itertools
import json
import math
import tracemalloc
from dataclasses import asdict, replace

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
    PeriodicArrival,
    PoissonArrival,
    ProblemSpec,
    ScheduleArrival,
    Scenario,
    TargetSpec,
    UnknownParameterPath,
    ValidationError,
    scenario_from_dict,
    scenario_to_dict,
    scenario_violations,
    set_path,
    validate_scenario,
)
from beds.dynamics import NOT_CRYSTALLIZED, bayes_update, check_crystallization, propagate
from beds.energy import gaussian_entropy
from beds import analysis, cli, dynamics, engine, fluxgen
from beds.engine import run, sweep, trace_to_csv
from beds.fluxgen import FLUX_FIELDS, generate_flux, target_mean_at
from beds.scenarios import (
    dissipation_only,
    drifting_tracking,
    static_crystallizing,
    steady_state,
    tracking_sweep_base,
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


def test_mean_loop_blocks_leave_a_run_unchanged(monkeypatch):
    # Each block of the mean loop starts from the last mean of the one before.
    scenario = drifting_tracking(seed=4)
    expected = run(scenario)
    monkeypatch.setattr(dynamics, "_MEAN_BLOCK", 7)
    trace = run(scenario)
    assert len(trace.events) > 3 * 7
    _assert_same_trace(trace, expected)


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


def test_sweep_csv_formats_float_columns_as_arrays_with_the_same_bytes(monkeypatch):
    from beds.io import csv_text

    table = sweep(replace(tracking_sweep_base(), horizon=10.0), [("beds.gamma", [0.1, 0.25])], replicates=2)
    table.rows[0]["total_info"] = math.nan
    table.rows[1]["max_kl_after_t0"] = -0.0
    table.rows[2]["total_energy"] = 1e-300
    # A grid column with an integer value stays a list, as do the integer columns.
    table.params.append("horizon")
    for i, row in enumerate(table.rows):
        row["horizon"] = 10 if i else 10.5
    passed = {}

    def spy(header, columns):
        passed.update(zip(header, columns))
        return csv_text(header, columns)

    monkeypatch.setattr(engine, "csv_text", spy)
    text = table.to_csv()
    assert text == csv_text(list(passed), [[row[name] for row in table.rows] for name in passed])
    lists = {name for name, column in passed.items() if isinstance(column, list)}
    assert lists == {"horizon", "replicate", "seed", "observation_count"}
    assert all(column.dtype == np.float64 for name, column in passed.items() if name not in lists)


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


# --- shared work in sweeps ---------------------------------------------------------


@st.composite
def _sweep_cells(draw, arrivals=("periodic", "schedule", "poisson")):
    """Small scenarios over every arrival kind, noise and energy model; some crystallize."""

    kind = draw(st.sampled_from(arrivals))
    if kind == "periodic":
        arrival = PeriodicArrival(period=draw(st.sampled_from([0.25, 0.5, 1.5])))
    elif kind == "schedule":
        # Times past the horizon of 10 are never observed; repeated times are dt == 0 steps.
        times = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 7.0, 9.5, 12.0]), max_size=8))
        arrival = ScheduleArrival(times=tuple(sorted(times)))
    else:
        arrival = PoissonArrival(rate=draw(st.sampled_from([0.5, 2.0])))
    return Scenario(
        beds=BedsParams(
            gamma=draw(st.sampled_from([0.1, 1.0, 4.0])),
            epsilon=draw(st.sampled_from([1e-9, 0.2, 0.5])),
            initial_belief=GaussianBelief(0.3, 1.0),
        ),
        flux_spec=FluxSpec(
            arrival=arrival,
            obs_precision=draw(st.sampled_from([0.5, 4.0])),
            noise=draw(st.sampled_from(["exact", "noisy"])),
        ),
        problem=ProblemSpec(
            target=TargetSpec(
                kind="drifting", theta0=0.5, velocity=draw(st.sampled_from([0.0, 0.4])), target_variance=0.5
            ),
            delta=0.5,
            p_max=10.0,
            t0=draw(st.sampled_from([0.0, 2.0])),
        ),
        energy_model=draw(st.sampled_from([LANDAUER, FIXED])),
        horizon=10.0,
        sample_dt=0.25,
        seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )


def _assert_same_trace(trace, expected):
    for name in ("samples", "events"):
        got, want = getattr(trace, name), getattr(expected, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert trace.samples.tobytes() == expected.samples.tobytes()
    assert trace.events.tobytes() == expected.events.tobytes()
    assert trace.ledger.to_csv() == expected.ledger.to_csv()
    assert trace.outcome == expected.outcome
    # repr, so a nan summary field compares equal to itself.
    assert repr(trace.summary) == repr(expected.summary)
    assert (trace.clamped, trace.power_window) == (expected.clamped, expected.power_window)


# Values to sweep one path over. The first five paths lie outside a precision
# side's key, so their cells share one side; the rest are inside it, so a key
# that missed one would lend a cell the side of another.
_SWEPT = {
    "problem.target.velocity": [0.0, 0.4, 1.3],
    "problem.target.theta0": [0.5, -2.0],
    "problem.target.target_variance": [0.5, 3.0],
    "beds.initial_belief.mean": [0.3, 1.7],
    "problem.delta": [0.5, 0.05],
    "beds.gamma": [0.1, 1.0, 4.0],
    "beds.epsilon": [1e-9, 0.2, 0.5],
    "beds.initial_belief.precision": [1.0, 0.2],
    "flux_spec.arrival.period": [0.25, 0.5, 1.5],
    "flux_spec.obs_precision": [0.5, 4.0, 16.0],
    "energy_model.kBT": [0.7, 1.0, 2.5],
    "energy_model.fixed_cost_value": [0.2, 0.9],
    "sample_dt": [0.25, 0.5],
    "horizon": [10.0, 5.0],
    "problem.t0": [0.0, 2.0, 3.0],
}


@given(_sweep_cells(), st.data())
@settings(max_examples=25, deadline=None)
def test_sweep_rows_equal_independent_runs(base, data):
    for path, choices in _SWEPT.items():
        cell = base
        if path == "flux_spec.arrival.period" and not isinstance(base.flux_spec.arrival, PeriodicArrival):
            cell = replace(base, flux_spec=replace(base.flux_spec, arrival=PeriodicArrival(period=0.5)))
        values = data.draw(st.lists(st.sampled_from(choices), min_size=2, max_size=3, unique=True), label=path)
        table = sweep(cell, [(path, values)], replicates=2)
        expected = []
        raw = scenario_to_dict(cell)
        for value in values:
            set_path(raw, path, value)
            for replicate in range(2):
                raw["seed"] = (cell.seed + replicate) % 2**64
                row = {path: value, "replicate": replicate, "seed": raw["seed"]}
                row.update(asdict(run(scenario_from_dict(raw)).summary))
                expected.append(row)
        assert repr(table.rows) == repr(expected), path


@given(_sweep_cells(), st.sampled_from([engine.MAX_EXPECTED_COUNT, 0]))
@settings(max_examples=60, deadline=None)
def test_sweep_rows_equal_independent_runs_over_noise_prefixes(base, cap):
    # Cells of three horizons read shorter and longer prefixes of each seed's
    # normals; a cap of 0 makes every row draw its own.
    horizons, precisions = [5.0, 10.0, 2.5], [base.flux_spec.obs_precision, 16.0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "MAX_EXPECTED_COUNT", cap)
        table = sweep(base, [("horizon", horizons), ("flux_spec.obs_precision", precisions)], replicates=3)
    expected = []
    for horizon, obs_precision in itertools.product(horizons, precisions):
        for replicate in range(3):
            seed = (base.seed + replicate) % 2**64
            spec = replace(base.flux_spec, obs_precision=obs_precision)
            scenario = replace(base, horizon=horizon, flux_spec=spec, seed=seed)
            row = {"horizon": horizon, "flux_spec.obs_precision": obs_precision, "replicate": replicate, "seed": seed}
            row.update(asdict(run(scenario).summary))
            expected.append(row)
    assert repr(table.rows) == repr(expected)


def _normals_seen(monkeypatch):
    """Record, per generate_flux call in the engine, its seed and the normals it was given."""

    seen = []

    def spy(spec, target, horizon, seed, normals=None):
        seen.append((seed, normals))
        return generate_flux(spec, target, horizon, seed, normals)

    monkeypatch.setattr(engine, "generate_flux", spy)
    return seen


def _draws_seen(monkeypatch):
    """Record the (seed, count) of each first_normals call, in the sweep and in generate_flux."""

    drawn, first_normals = {"sweep": [], "flux": []}, fluxgen.first_normals
    for module, name in ((engine, "sweep"), (fluxgen, "flux")):

        def spy(seed, count, name=name):
            drawn[name].append((seed, count))
            return first_normals(seed, count)

        monkeypatch.setattr(module, "first_normals", spy)
    return drawn


def test_sweep_draws_each_seeds_normals_once_and_keeps_none_after_it_returns(monkeypatch):
    base = replace(tracking_sweep_base(), horizon=10.0)
    grid = [("flux_spec.arrival.period", [0.5, 0.25])]
    seeds = [base.seed, base.seed + 1, base.seed + 2]
    module_state = {module: dict(vars(module)) for module in (engine, fluxgen)}
    drawn = _draws_seen(monkeypatch)
    seen = _normals_seen(monkeypatch)
    first = sweep(base, grid, replicates=3)
    # Each seed's first 40 normals, as many as the period-0.25 cell reads,
    # are drawn once, before the first run, and no row draws its own.
    assert drawn == {"sweep": [(seed, 40) for seed in seeds], "flux": []}
    assert [seed for seed, _ in seen] == seeds * 2
    # Every row of a seed reads the same read-only normals.
    given = {seed: normals for seed, normals in seen}
    for seed, normals in seen:
        assert normals is given[seed] and not normals.flags.writeable
        assert normals.tolist() == fluxgen.first_normals(seed, 40).tolist()
    seen.clear()
    second = sweep(base, grid, replicates=3)
    # The next sweep draws normals of its own, and neither module kept any.
    assert all(normals is not given[seed] for seed, normals in seen)
    assert repr(second.rows) == repr(first.rows)
    monkeypatch.undo()
    for row in first.rows:
        arrival = PeriodicArrival(period=row["flux_spec.arrival.period"])
        scenario = replace(base, flux_spec=replace(base.flux_spec, arrival=arrival), seed=row["seed"])
        summary = asdict(run(scenario).summary)
        assert repr(summary) == repr({name: row[name] for name in summary})
    assert {module: dict(vars(module)) for module in (engine, fluxgen)} == module_state


def test_sweep_over_the_memo_cap_draws_per_run(monkeypatch):
    base = replace(tracking_sweep_base(), horizon=10.0)
    grid = [("flux_spec.arrival.period", [0.5, 0.25])]
    shared = sweep(base, grid, replicates=3)
    # 3 replicates x 40 normals of the period-0.25 cell: one past the cap.
    monkeypatch.setattr(engine, "MAX_EXPECTED_COUNT", 119)
    drawn = _draws_seen(monkeypatch)
    seen = _normals_seen(monkeypatch)
    assert repr(sweep(base, grid, replicates=3).rows) == repr(shared.rows)
    assert [normals for _, normals in seen] == [None] * 6
    assert drawn["sweep"] == [] and sorted(count for _, count in drawn["flux"]) == [20] * 3 + [40] * 3
    monkeypatch.setattr(engine, "MAX_EXPECTED_COUNT", 120)
    seen.clear()
    sweep(base, grid, replicates=3)
    assert all(normals is not None for _, normals in seen)


@given(_sweep_cells(arrivals=("periodic", "schedule")))
@settings(max_examples=40, deadline=None)
def test_a_split_key_holds_one_read_only_side_that_its_rows_copy(base):
    sides, traces, build = [], [], engine._lent_traces

    def traces_spy(scenarios, side, means):
        sides.append(side)
        return build(scenarios, side, means)

    def run_spy(scenario, observations=None, *, batched=None):
        traces.append((scenario, run(scenario, observations, batched=batched)))
        return traces[-1][1]

    count = fluxgen.fixed_count(base.flux_spec.arrival, base.horizon)
    with pytest.MonkeyPatch.context() as patch:
        # A key of 5 rows runs as batches of 2, 2 and 1.
        patch.setattr(engine, "MAX_EXPECTED_COUNT", 2 * max(count, 1))
        patch.setattr(engine, "_lent_traces", traces_spy)
        patch.setattr(engine, "run", run_spy)
        sweep(base, [], replicates=5)
    assert len(sides) == 3 and all(side is sides[0] for side in sides)
    ledger = sides[0].ledger
    held = (sides[0].events, sides[0].samples, sides[0].last, ledger.times, ledger.energies, ledger.infos, ledger.cumulative)
    assert not any(column.flags.writeable for column in held)
    before = [column.tobytes() for column in held]
    # Writing one row's samples and events reaches neither the held side nor a later row.
    first = traces[0][1]
    for name in first.samples.dtype.names:
        first.samples[name] = 7.0
    first.events["mean_after"] = 7.0
    assert [column.tobytes() for column in held] == before
    for scenario, trace in traces[1:]:
        _assert_same_trace(trace, run(scenario))


def test_a_batched_trace_is_returned_as_it_is():
    # sweep hands each row's run the trace built for it, and has validated its cell.
    base = replace(tracking_sweep_base(), horizon=10.0)
    trace = run(base)
    invalid = replace(base, problem=replace(base.problem, delta=-1.0))
    for scenario in (base, replace(base, seed=base.seed + 1), invalid):
        assert run(scenario, batched=trace) is trace


def test_generated_replayed_and_poisson_runs_return_writeable_arrays():
    periodic = replace(tracking_sweep_base(), horizon=10.0)
    poisson = replace(periodic, flux_spec=replace(periodic.flux_spec, arrival=PoissonArrival(rate=2.0)))
    flux = generate_flux(periodic.flux_spec, periodic.problem.target, periodic.horizon, periodic.seed)
    for trace in (run(periodic), run(periodic, observations=flux), run(poisson)):
        assert trace.events.flags.writeable and trace.samples.flags.writeable


def test_sweep_runs_each_row_once_key_by_key_and_keeps_grid_order(monkeypatch):
    # A velocity-major grid: each period is a precision-side key spread over
    # every velocity, so rows run key by key, and are emitted in grid order.
    base = replace(tracking_sweep_base(), horizon=4.0)
    velocities, periods = [0.0, 0.5, 1.0], [0.5, 0.25]
    ran, generated, validated = [], [], []

    def run_spy(scenario, observations=None, *, batched=None):
        ran.append(scenario)
        return run(scenario, observations, batched=batched)

    def flux_spy(spec, target, horizon, seed, normals=None):
        generated.append((spec.arrival.period, target.velocity, seed))
        return generate_flux(spec, target, horizon, seed, normals)

    def validate_spy(scenario):
        validated.append((scenario.flux_spec.arrival.period, scenario.problem.target.velocity, scenario.seed))
        return validate_scenario(scenario)

    monkeypatch.setattr(engine, "run", run_spy)
    monkeypatch.setattr(engine, "generate_flux", flux_spy)
    monkeypatch.setattr(engine, "validate_scenario", validate_spy)
    grid = [("problem.target.velocity", velocities), ("flux_spec.arrival.period", periods)]
    table = sweep(base, grid, replicates=2)
    # Each cell is validated once, before the first run; a batched row is not validated again.
    cells = [(period, velocity, base.seed) for velocity in velocities for period in periods]
    assert validated == cells
    rows = [(row["problem.target.velocity"], row["flux_spec.arrival.period"], row["replicate"]) for row in table.rows]
    assert rows == list(itertools.product(velocities, periods, range(2)))
    # One run and one flux per row, the rows of one period together.
    keyed = [(period, velocity, base.seed + replicate) for period in periods for velocity in velocities for replicate in range(2)]
    assert [(s.flux_spec.arrival.period, s.problem.target.velocity, s.seed) for s in ran] == keyed
    assert sorted(generated) == sorted(keyed) and len(generated) == len(keyed)
    monkeypatch.undo()
    for row in table.rows:
        raw = scenario_to_dict(base)
        set_path(raw, "problem.target.velocity", row["problem.target.velocity"])
        set_path(raw, "flux_spec.arrival.period", row["flux_spec.arrival.period"])
        raw["seed"] = row["seed"]
        summary = asdict(run(scenario_from_dict(raw)).summary)
        assert repr(summary) == repr({name: row[name] for name in summary})


# The velocity x period grid of `beds verify`'s tracking sweep, 10 replicates per cell.
_BENCH_GRID = [
    ("problem.target.velocity", [0.0, 0.5, 1.0, 2.0]),
    ("flux_spec.arrival.period", [0.5, 0.25, 0.125, 0.0625, 0.03125]),
]


def test_beds_sweep_validates_the_base_and_each_cell_once(monkeypatch, tmp_path):
    calls = {"validate": 0, "run": 0, "flux": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return spy

    for module in (cli, engine):
        monkeypatch.setattr(module, "validate_scenario", counted("validate", validate_scenario))
    monkeypatch.setattr(engine, "run", counted("run", run))
    monkeypatch.setattr(engine, "generate_flux", counted("flux", generate_flux))
    path = tmp_path / "base.json"
    path.write_text(json.dumps(scenario_to_dict(tracking_sweep_base())))
    argv = ["sweep", "--scenario-path", str(path), "--output-dir", str(tmp_path / "out"), "--replicates", "10"]
    for name, values in _BENCH_GRID:
        argv += ["--grid", f"{name}=" + ",".join(map(repr, values))]
    assert cli.main(argv) == 0
    assert calls == {"validate": 1 + 20, "run": 200, "flux": 200}


def test_a_bench_sized_sweep_holds_under_two_megabytes():
    # The traces of a key's batch are built a few rows at a time: building a
    # whole batch's at once peaks at about 8 MB.
    base = tracking_sweep_base()
    sweep(base, _BENCH_GRID, replicates=10)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        sweep(base, _BENCH_GRID, replicates=10)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def test_a_wide_key_splits_into_batches_under_the_memory_cap(monkeypatch):
    # 40 events per run: a cap of 100 means lets a batch hold 2 rows, so a
    # key of 5 rows runs as batches of 2, 2 and 1.
    base = replace(tracking_sweep_base(), horizon=10.0)
    grid = [("flux_spec.arrival.period", [0.25])]
    expected = sweep(base, grid, replicates=5)
    widths = []

    def evolve_spy(means, values, obs_precisions, precision_before):
        widths.append(values.shape)
        return dynamics.evolve_means(means, values, obs_precisions, precision_before)

    monkeypatch.setattr(engine, "evolve_means", evolve_spy)
    sweep(base, grid, replicates=5)
    assert widths == [(40, 5)]
    widths.clear()
    monkeypatch.setattr(engine, "MAX_EXPECTED_COUNT", 100)
    table = sweep(base, grid, replicates=5)
    assert widths == [(40, 2), (40, 2), (40, 1)]
    assert repr(table.rows) == repr(expected.rows)


def _crystallizing_key():
    # Every row of this grid shares one precision side, which crystallizes
    # at the fifth observation; the rows differ in their means and targets,
    # and some crystallize within delta of the target, some outside it.
    base = replace(tracking_sweep_base(), horizon=10.0)
    base = replace(base, beds=replace(base.beds, epsilon=0.11), problem=replace(base.problem, delta=0.2))
    grid = [("problem.target.velocity", [0.0, 1.0]), ("problem.target.target_variance", [0.25, 2.0])]
    return base, grid, 3


def _long_key():
    return replace(tracking_sweep_base(), horizon=10.0), [("beds.initial_belief.mean", [0.0, 0.5])], 5


def _width_one_keys():
    # One replicate per period: each key is a single row.
    return replace(tracking_sweep_base(), horizon=10.0), [("flux_spec.arrival.period", [0.5, 0.25])], 1


def _two_keys():
    # Two periods of three noisy replicates each: two batches, which read
    # shorter and longer prefixes of the same seeds' normals.
    return replace(tracking_sweep_base(), horizon=10.0), [("flux_spec.arrival.period", [0.5, 0.25])], 3


def _poisson_rows():
    base = replace(tracking_sweep_base(), horizon=10.0)
    base = replace(base, flux_spec=replace(base.flux_spec, arrival=PoissonArrival(rate=4.0)))
    return base, [("problem.target.velocity", [0.0, 1.0])], 2


@pytest.mark.parametrize("rows_per_block", [None, 1, 2])
@pytest.mark.parametrize("case", [_crystallizing_key, _long_key, _width_one_keys, _two_keys, _poisson_rows])
def test_each_sweep_row_is_its_own_run(monkeypatch, case, rows_per_block):
    base, grid, replicates = case()
    if rows_per_block is not None:
        # _TRACE_BLOCK counts sample-plus-event rows; every row of these keys has as many.
        alone = run(base)
        monkeypatch.setattr(engine, "_TRACE_BLOCK", rows_per_block * (len(alone.events) + len(alone.samples)))
    traces, blocks = [], []

    def run_spy(scenario, observations=None, *, batched=None):
        traces.append((scenario, run(scenario, observations, batched=batched)))
        return traces[-1][1]

    def kl_spy(mean, precision_q, mean_p, precision_p):
        blocks.append(len(mean))
        return analysis.kl_gaussian(mean, precision_q, mean_p, precision_p)

    monkeypatch.setattr(engine, "run", run_spy)
    monkeypatch.setattr(engine, "kl_gaussian", kl_spy)
    table = sweep(base, grid, replicates=replicates)
    monkeypatch.undo()
    assert len(traces) == len(table.rows)
    if case is _crystallizing_key:
        assert all(trace.outcome.crystallized for _, trace in traces)
        assert len({trace.outcome.accurate for _, trace in traces}) == 2
    for scenario, trace in traces:
        _assert_same_trace(trace, run(scenario))
    if case is _crystallizing_key:
        # The key halts before t0: with no sample past the burn-in, no divergence is computed.
        assert all(math.isnan(trace.summary.max_kl_after_t0) for _, trace in traces)
        assert blocks == []
    if case is _long_key:
        # A batch's divergence is computed on blocks of rows_per_block rows
        # (the last one shorter), whatever its width.
        width = rows_per_block or len(traces)
        assert blocks == [min(width, len(traces) - lo) for lo in range(0, len(traces), width)]


def test_a_sweep_computes_divergence_only_after_the_burn_in(monkeypatch):
    base = tracking_sweep_base()
    assert base.problem.t0 == 5.0
    grid = [("problem.target.velocity", [0.0, 1.0]), ("flux_spec.arrival.period", [0.5, 0.25])]
    covered = []

    def kl_spy(mean, precision_q, mean_p, precision_p):
        covered.append(precision_q.tobytes())
        return analysis.kl_gaussian(mean, precision_q, mean_p, precision_p)

    monkeypatch.setattr(engine, "kl_gaussian", kl_spy)
    table = sweep(base, grid, replicates=2)
    monkeypatch.undo()
    tails = set()
    for row in table.rows:
        arrival = PeriodicArrival(period=row["flux_spec.arrival.period"])
        target = replace(base.problem.target, velocity=row["problem.target.velocity"])
        scenario = replace(
            base,
            flux_spec=replace(base.flux_spec, arrival=arrival),
            problem=replace(base.problem, target=target),
            seed=row["seed"],
        )
        alone = run(scenario)
        tails.add(alone.samples["precision"][alone.samples["t"] > 5.0].tobytes())
        assert repr(row["max_kl_after_t0"]) == repr(alone.summary.max_kl_after_t0)
    # One divergence block per key, each on exactly the samples after t0.
    assert len(covered) == len(tails) == 2 and set(covered) == tails


def test_a_sweep_that_reads_its_summaries_assembles_no_row(monkeypatch):
    # A row of a shared side fills a copy of its samples only when they are
    # read, once; a plain run fills its own side once, as it is built.
    filled = []

    def fill_spy(scenarios, side, means, samples=None):
        if samples is not None:
            filled.append(scenarios[0])
        return divergence(scenarios, side, means, samples)

    divergence = engine._divergence
    traces = []

    def run_spy(scenario, observations=None, *, batched=None):
        traces.append((scenario, run(scenario, observations, batched=batched)))
        return traces[-1][1]

    base = replace(tracking_sweep_base(), horizon=10.0)
    grid = [("problem.target.velocity", [0.0, 1.0]), ("flux_spec.arrival.period", [0.5, 0.25])]
    monkeypatch.setattr(engine, "run", run_spy)
    monkeypatch.setattr(engine, "_divergence", fill_spy)
    sweep(base, grid, replicates=3)
    assert len(traces) == 12 and filled == []
    scenario, trace = traces[0]
    expected = run(scenario)
    assert filled == [scenario]
    filled.clear()
    # One fill on the first read of samples, none on the second.
    for _ in range(2):
        _assert_same_trace(trace, expected)
        assert filled == [scenario]


@pytest.mark.parametrize("block", [7, 64, None])
def test_a_runs_divergence_maximum_is_that_of_its_samples(monkeypatch, block):
    # The maximum is taken over blocks of the samples after t0, apart from the kl_to_target column.
    if block is not None:
        monkeypatch.setattr(engine, "_TRACE_BLOCK", block)
    for builder in (dissipation_only, drifting_tracking, static_crystallizing, steady_state, tracking_sweep_base):
        scenario = replace(builder(), horizon=60.0)
        trace = run(scenario)
        expected = analysis.after_burn_in(trace.samples, scenario.problem.t0, "kl_to_target", np.max)
        assert repr(trace.summary.max_kl_after_t0) == repr(expected)


def test_a_plain_run_and_a_shared_row_build_the_same_trace_class(monkeypatch):
    # Both fill their samples and events once; the side the rows share is never written.
    sides, traces, filled = [], [], []
    build, divergence = engine._lent_traces, engine._divergence

    def traces_spy(scenarios, side, means):
        sides.append(side)
        return build(scenarios, side, means)

    def run_spy(scenario, observations=None, *, batched=None):
        traces.append((scenario, run(scenario, observations, batched=batched)))
        return traces[-1][1]

    def fill_spy(scenarios, side, means, samples=None):
        if samples is not None:
            filled.append(scenarios[0])
        return divergence(scenarios, side, means, samples)

    monkeypatch.setattr(engine, "_lent_traces", traces_spy)
    monkeypatch.setattr(engine, "run", run_spy)
    monkeypatch.setattr(engine, "_divergence", fill_spy)
    sweep(replace(tracking_sweep_base(), horizon=10.0), [], replicates=2)
    [side] = sides
    held = (side.events, side.samples, side.last)
    before = [column.tobytes() for column in held]
    scenario, row = traces[0]
    plain = run(scenario)
    assert type(row) is type(plain) is engine.RunTrace
    for trace in (row, plain):
        samples, events = trace.samples, trace.events
        filled.clear()
        # A second read returns the same arrays and fills nothing.
        assert trace.samples is samples and trace.events is events
        assert filled == []
    _assert_same_trace(row, plain)
    assert not any(column.flags.writeable for column in held)
    assert [column.tobytes() for column in held] == before


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
            # A target variance of 100 keeps the divergence of a 1e-305 initial belief finite.
            target=TargetSpec(kind="drifting", theta0=0.0, velocity=0.3, target_variance=100.0),
        ),
        energy_model=energy_model,
        horizon=20.0,
        # A replay never reads the spec's obs_precision. At 1e-3 the largest gain
        # of one charge stays finite on a 1e-305 initial belief, so it validates.
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
        (0.5, 1e-9, 1e-305, LANDAUER, [(0.0, 1.0, 1e-320), (0.0, 2.0, 1e-305), (1.0, 0.0, 2.0), (1.0, 1.0, 3.0)], None),
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
        initial_precision=draw(st.sampled_from([1e-305, 1e-3, 1.0, 50.0])),
        energy_model=draw(st.sampled_from([LANDAUER, FIXED])),
    )
    return scenario, _flux(rows)


@given(_replays())
@settings(max_examples=300, deadline=None)
def test_run_matches_scalar_reference(case):
    _assert_run_matches_scalar_reference(*case)


@pytest.mark.parametrize("model", [LANDAUER, FIXED], ids=["landauer", "fixed-cost"])
def test_replay_with_an_infinite_charge_is_rejected(model):
    # 1e4 / 1e-305 is past the float range: the first charge gains inf nats.
    scenario = _replay_scenario(1e-6, 1e-9, 1e-305, model)
    with pytest.raises(ValidationError) as info:
        run(scenario, observations=_flux([(0.0, 0.0, 1e4), (1.0, 0.0, 1e-3)]))
    [violation] = info.value.violations
    assert (violation.code, violation.field) == ("budget_exceeded", "observations")


def test_replay_whose_precision_overflows_the_divergence_is_rejected():
    # Every budget holds for the scenario, but 1e10 over the target's
    # precision of 1e-300 is past the float range.
    scenario = replace(steady_state(), horizon=30.0, beds=replace(steady_state().beds, epsilon=1e-20))
    target = replace(scenario.problem.target, target_variance=1e300)
    scenario = replace(scenario, problem=replace(scenario.problem, target=target, t0=1.0))
    with pytest.raises(ValidationError) as info:
        run(scenario, observations=_flux([(0.5, 0.0, 1e10)]))
    [violation] = info.value.violations
    assert (violation.code, violation.field) == ("budget_exceeded", "observations")
    assert "divergence" in violation.message
    # A row of precision 1 fits.
    assert math.isfinite(run(scenario, observations=_flux([(0.5, 0.0, 1.0)])).summary.max_kl_after_t0)


def test_replayed_negative_time_names_row_0():
    with pytest.raises(NegativeDt, match=r"^flux row 0: time must be >= 0, got -1e\+300$"):
        run(dissipation_only(), observations=_flux([(-1e300, 0.0, 1.0), (0.5, 0.0, 1.0)]))


# --- extreme replayed values ----------------------------------------------------------

SHIPPED_SCENARIOS = [dissipation_only, drifting_tracking, static_crystallizing, steady_state, tracking_sweep_base]
REPLAY_EXTREMES = [5e-324, 1e-310, 1e-300, 1e300, 1.7e308, -1e300, -5e-324, 0.0, 1.0]
REPLAY_ROWS = [(0.25, 0.5, 2.0), (0.5, -0.5, 1.0), (0.75, 1.0, 4.0)]


def _replay_with(make_scenario, horizon: float, cells) -> tuple[Scenario, bool]:
    """Replay REPLAY_ROWS with each ``(row, field, value)`` of ``cells`` set.

    Returns the scenario and whether the replay was rejected with a
    ``BedsError`` or ``ValueError``. A replay that runs must give finite
    samples, events, ledger columns and summary, except the ``*_after_t0``
    fields, which are nan exactly when no sample is past t0. Any warning
    fails the test (``error::RuntimeWarning``).
    """

    scenario = replace(make_scenario(), horizon=horizon)
    flux = _flux(REPLAY_ROWS)
    for row, name, value in cells:
        flux[name][row] = value
    try:
        trace = run(scenario, observations=flux)
    except (BedsError, ValueError):
        return scenario, True
    for table in (trace.samples, trace.events):
        for name in table.dtype.names:
            assert np.isfinite(table[name]).all(), (scenario, cells, name)
    ledger = trace.ledger
    for column in (ledger.times, ledger.energies, ledger.infos, ledger.cumulative):
        assert np.isfinite(column).all(), (scenario, cells)
    past_t0 = bool((trace.samples["t"] > scenario.problem.t0).any())
    for name, value in asdict(trace.summary).items():
        assert math.isnan(value) == (name.endswith("_after_t0") and not past_t0), (scenario, cells, name, value)
    return scenario, False


@pytest.mark.parametrize("make_scenario", SHIPPED_SCENARIOS)
@pytest.mark.parametrize("horizon", [1.0, 3.0])
def test_every_extreme_replayed_cell_is_rejected_or_gives_a_finite_run(make_scenario, horizon):
    # The rows as they are run, unless the scenario is invalid at this horizon
    # (steady_state's sample_dt is 1).
    scenario, rejected = _replay_with(make_scenario, horizon, [])
    assert rejected == bool(scenario_violations(scenario))
    for row in range(len(REPLAY_ROWS)):
        for name in FLUX_FIELDS:
            for value in REPLAY_EXTREMES:
                _replay_with(make_scenario, horizon, [(row, name, value)])


@given(
    make_scenario=st.sampled_from(SHIPPED_SCENARIOS),
    horizon=st.sampled_from([1.0, 3.0]),
    rows=st.lists(st.sampled_from(range(len(REPLAY_ROWS))), min_size=2, max_size=2, unique=True),
    names=st.lists(st.sampled_from(FLUX_FIELDS), min_size=2, max_size=2),
    values=st.lists(st.sampled_from(REPLAY_EXTREMES), min_size=2, max_size=2),
)
@settings(max_examples=100, deadline=None)
def test_two_extreme_replayed_cells_are_rejected_or_give_a_finite_run(make_scenario, horizon, rows, names, values):
    # +1.7e308 then -1.7e308, say, can take a mean to inf - inf.
    _replay_with(make_scenario, horizon, list(zip(rows, names, values)))


# --- mutation detection -------------------------------------------------------------


def test_broken_propagation_is_caught_by_steady_state_check(monkeypatch):
    # Flip the decay direction inside the engine's precision recurrence: the balance check must fail.
    from beds import dynamics, verify

    def broken_evolve_precision(precision, times, obs_precisions, gamma, epsilon):
        return dynamics.evolve_precision(precision, times, obs_precisions, -gamma, epsilon)

    monkeypatch.setattr("beds.engine.evolve_precision", broken_evolve_precision)
    passed, _ = verify.check_steady_state_balance(verify.DEFAULT_SEED_BASE)
    assert not passed
