import math

import numpy as np
import pytest

import beds
from beds.core import (
    BedsParams,
    EnergyModel,
    FluxSpec,
    GaussianBelief,
    ProblemSpec,
    ScheduleArrival,
    Scenario,
    TargetSpec,
    UnknownParameterPath,
    ValidationError,
)
from beds.energy import gaussian_entropy
from beds import engine
from beds.engine import run, sweep, trace_to_csv
from beds.fluxgen import FLUX_FIELDS
from beds.scenarios import (
    dissipation_only,
    drifting_tracking,
    static_crystallizing,
    steady_state,
)


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
    assert trace.ledger.times == [1.0]
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
    assert (a.ledger.times, a.ledger.energies, a.ledger.infos) == (
        b.ledger.times, b.ledger.energies, b.ledger.infos
    )
    assert np.array_equal(a.events, b.events)
    assert a.outcome == b.outcome


def test_sampling_density_does_not_perturb_dynamics():
    base = beds.scenario_to_dict(drifting_tracking())
    coarse = beds.scenario_from_dict({**base, "sample_dt": 0.25})
    fine = beds.scenario_from_dict({**base, "sample_dt": 0.05})
    trace_coarse = run(coarse)
    trace_fine = run(fine)
    assert trace_coarse.ledger.times == trace_fine.ledger.times
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
        expected = trace.ledger.windowed_power(float(row["t"]), trace.power_window)
        assert row["windowed_power"] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_cumulative_energy_column_is_causal():
    trace = run(static_crystallizing())
    for row in trace.samples[:: max(1, len(trace.samples) // 7)]:
        assert row["cumulative_energy"] == pytest.approx(
            trace.ledger.energy_up_to(float(row["t"])), rel=1e-12, abs=1e-15
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
    assert trace.samples["precision"][-1] == beds.PRECISION_FLOOR


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
    with pytest.raises(ValueError):
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
    assert direct.ledger.times == via_replay.ledger.times
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


# --- mutation detection -------------------------------------------------------------


def test_broken_propagation_is_caught_by_steady_state_check(monkeypatch):
    # Flip the decay direction inside the engine: the balance check must fail.
    from beds import dynamics, verify

    def broken_propagate(belief, dt, gamma):
        return dynamics.propagate(belief, dt, -gamma)

    monkeypatch.setattr("beds.engine.propagate", broken_propagate)
    report = verify.run_all(seed_base=verify.DEFAULT_SEED_BASE)
    balance = next(c for c in report.checks if c.name == "steady_state_precision_balance")
    assert not balance.passed
    assert not report.all_passed
