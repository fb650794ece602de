"""Event-driven simulation of a belief maintained against dissipation.

One run walks the observation stream in time order: closed-form dissipation
to each arrival, conjugate update, energy charge at the pre-update
precision, then a crystallization check. Fixed-step samples are
interpolated from the last event by the same closed form, so sampling
density never perturbs the trajectory. A crystallized run halts: nothing is
recorded afterwards.

Sweeps run the Cartesian product of parameter overrides and replicate
seeds, one summary row per cell per replicate.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import (
    NonMonotonicFlux,
    Scenario,
    UnknownParameterPath,
    scenario_from_dict,
    scenario_to_dict,
    set_path,
    validate_scenario,
)
from .dynamics import (
    PRECISION_FLOOR,
    CrystallizationOutcome,
    bayes_update,
    check_crystallization,
    propagate,
)
from .energy import EnergyLedger, observation_cost
from .fluxgen import generate_flux, target_mean_at
from .io import csv_text

__all__ = [
    "Summary",
    "RunTrace",
    "SweepTable",
    "run",
    "sweep",
    "trace_to_csv",
    "summary_to_dict",
]

SAMPLE_FIELDS = (
    "t",
    "mean",
    "precision",
    "variance",
    "kl_to_target",
    "cumulative_energy",
    "windowed_power",
)
_SAMPLE_DTYPE = np.dtype([(name, np.float64) for name in SAMPLE_FIELDS])
_EVENT_DTYPE = np.dtype(
    [(name, np.float64) for name in ("mean_before", "precision_before", "mean_after", "precision_after")]
)


@dataclass(frozen=True)
class Summary:
    """Aggregates over one run; time averages exclude the burn-in [0, t0]."""

    mean_precision_after_t0: float
    max_kl_after_t0: float
    mean_windowed_power_after_t0: float
    observation_count: int
    total_energy: float
    total_info: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunTrace:
    """Everything recorded about one run.

    ``samples`` is a structured array with fields t, mean, precision,
    variance, kl_to_target, cumulative_energy, windowed_power, at multiples
    of the scenario's sample_dt up to the horizon or the crystallization
    time, whichever is earlier. ``events`` is a structured array with
    fields mean_before, precision_before, mean_after, precision_after: row
    ``i`` is the belief change of the observation that ``ledger`` charged
    as entry ``i``, whose time, energy and information live in the ledger
    only. ``clamped`` flags that the precision floor was hit at least once.
    """

    samples: np.ndarray
    events: np.ndarray
    outcome: CrystallizationOutcome
    ledger: EnergyLedger
    summary: Summary
    horizon: float
    power_window: float
    clamped: bool = False
    halted_at: float | None = None


def run(
    scenario: Scenario,
    power_window: float | None = None,
    observations: list | None = None,
) -> RunTrace:
    """Simulate one scenario deterministically.

    ``power_window`` is the sliding-window width used for the recorded
    power series; it defaults to horizon / 10. Observation costs are priced
    at the pre-update precision, after dissipation to the arrival instant.
    Passing ``observations`` replays an explicit time-ordered stream (for
    example one read back from a flux CSV) instead of generating one from
    the scenario's flux spec.
    """

    validate_scenario(scenario)
    if power_window is None:
        power_window = scenario.horizon / 10.0

    target = scenario.problem.target
    if observations is None:
        observations = generate_flux(scenario.flux_spec, target, scenario.horizon, scenario.seed)
    for prev, nxt in zip(observations, observations[1:]):
        if nxt.time < prev.time:
            raise NonMonotonicFlux(f"observation at t={nxt.time!r} precedes t={prev.time!r}")

    gamma = scenario.beds.gamma
    epsilon = scenario.beds.epsilon
    delta = scenario.problem.delta
    sample_dt = scenario.sample_dt
    horizon = scenario.horizon
    last_sample_index = int(math.floor(horizon / sample_dt * (1.0 + 1e-12)))

    ledger = EnergyLedger(kBT=scenario.energy_model.kBT)
    belief = scenario.beds.initial_belief
    state_t = 0.0
    events: list[tuple[float, float, float, float]] = []
    outcome = CrystallizationOutcome(crystallized=False)
    clamped = belief.precision <= PRECISION_FLOOR
    halted_at: float | None = None

    times: list[float] = []
    means: list[float] = []
    precisions: list[float] = []
    next_index = 0

    def emit_samples(limit: float, inclusive: bool) -> None:
        # Samples interpolate from the last event; they never advance the state.
        nonlocal next_index, clamped
        while next_index <= last_sample_index:
            ts = next_index * sample_dt
            if ts > limit or (not inclusive and ts == limit):
                break
            at_sample = propagate(belief, ts - state_t, gamma)
            if at_sample.precision <= PRECISION_FLOOR:
                clamped = True
            times.append(ts)
            means.append(at_sample.mean)
            precisions.append(at_sample.precision)
            next_index += 1

    for obs in observations:
        # Observations at a sample instant are applied first, so that the
        # sample reflects every event at its own timestamp.
        emit_samples(obs.time, inclusive=False)
        belief = propagate(belief, obs.time - state_t, gamma)
        state_t = obs.time
        if belief.precision <= PRECISION_FLOOR:
            clamped = True
        tau_before = belief.precision
        mean_before = belief.mean
        energy, info = observation_cost(scenario.energy_model, tau_before, obs.obs_precision)
        belief = bayes_update(belief, obs)
        ledger.charge(obs.time, energy, info)
        events.append((mean_before, tau_before, belief.mean, belief.precision))
        check = check_crystallization(
            belief, obs.time, epsilon, target_mean_at(target, obs.time), delta
        )
        if check.crystallized:
            outcome = check
            halted_at = obs.time
            break

    if halted_at is None:
        emit_samples(horizon, inclusive=True)

    samples = _assemble_samples(times, means, precisions, target, ledger, power_window)
    summary = _summarize(samples, scenario.problem.t0, ledger)
    return RunTrace(
        samples=samples,
        events=np.array(events, dtype=_EVENT_DTYPE),
        outcome=outcome,
        ledger=ledger,
        summary=summary,
        horizon=horizon,
        power_window=power_window,
        clamped=clamped,
        halted_at=halted_at,
    )


def _assemble_samples(
    times: list[float],
    means: list[float],
    precisions: list[float],
    target,
    ledger: EnergyLedger,
    power_window: float,
) -> np.ndarray:
    samples = np.zeros(len(times), dtype=_SAMPLE_DTYPE)
    if not times:
        return samples
    t = np.asarray(times)
    mean = np.asarray(means)
    precision = np.asarray(precisions)
    samples["t"] = t
    samples["mean"] = mean
    samples["precision"] = precision
    samples["variance"] = 1.0 / precision

    target_mean = target.theta0 + target.velocity * t
    tau_p = 1.0 / target.target_variance
    gap = mean - target_mean
    samples["kl_to_target"] = 0.5 * (
        np.log(precision / tau_p) + tau_p / precision + tau_p * gap * gap - 1.0
    )

    charge_times = np.asarray(ledger.times)
    cumulative = np.asarray(ledger.cumulative)
    if len(charge_times):
        hi = np.searchsorted(charge_times, t, side="right")
        lo = np.searchsorted(charge_times, t - power_window, side="right")
        padded = np.concatenate(([0.0], cumulative))
        samples["cumulative_energy"] = padded[hi]
        samples["windowed_power"] = (padded[hi] - padded[lo]) / power_window
    return samples


def _summarize(samples: np.ndarray, t0: float, ledger: EnergyLedger) -> Summary:
    after = samples["t"] > t0
    n_after = int(np.count_nonzero(after))
    return Summary(
        mean_precision_after_t0=float(np.mean(samples["precision"][after])) if n_after else math.nan,
        max_kl_after_t0=float(np.max(samples["kl_to_target"][after])) if n_after else math.nan,
        mean_windowed_power_after_t0=(
            float(np.mean(samples["windowed_power"][after])) if n_after else math.nan
        ),
        observation_count=len(ledger),
        total_energy=ledger.cumulative_energy,
        total_info=ledger.cumulative_info,
    )


def trace_to_csv(trace: RunTrace) -> str:
    """Render the sample series as CSV with one column per sample field."""

    columns = [trace.samples[name].tolist() for name in SAMPLE_FIELDS]
    return csv_text(SAMPLE_FIELDS, zip(*columns))


def summary_to_dict(trace: RunTrace) -> dict:
    out = trace.summary.to_dict()
    out["outcome"] = {
        "crystallized": trace.outcome.crystallized,
        "time": trace.outcome.time,
        "output_mean": trace.outcome.output_mean,
        "accurate": trace.outcome.accurate,
    }
    out["clamped"] = trace.clamped
    out["power_window"] = trace.power_window
    return out


@dataclass
class SweepTable:
    """Flat result table for a sweep: one row per grid cell per replicate."""

    params: list[str]
    rows: list[dict] = field(default_factory=list)

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def to_csv(self) -> str:
        header = [*self.params, "replicate", "seed", *(f.name for f in fields(Summary))]
        return csv_text(header, ([row[name] for name in header] for row in self.rows))


def sweep(
    base: Scenario,
    grid: list[tuple[str, list[float]]],
    replicates: int = 1,
    power_window: float | None = None,
) -> SweepTable:
    """Run the Cartesian product of grid values times replicate seeds.

    Grid entries are (dotted scenario path, values); paths must address
    numeric fields. Replicate ``i`` runs with seed base.seed + i. Row order
    is grid-major, replicate-minor, regardless of execution order.
    """

    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates!r}")
    paths = [path for path, _ in grid]
    table = SweepTable(params=paths)
    value_lists = [values for _, values in grid]
    base_dict = scenario_to_dict(base)
    for combo in itertools.product(*value_lists):
        for replicate in range(replicates):
            raw = copy.deepcopy(base_dict)
            for path, value in zip(paths, combo):
                old = set_path(raw, path, value)
                if isinstance(old, bool) or not isinstance(old, (int, float)):
                    raise UnknownParameterPath(f"scenario field {path!r} is not numeric")
            raw["seed"] = (base.seed + replicate) % 2**64
            scenario = scenario_from_dict(raw)
            trace = run(scenario, power_window=power_window)
            row = dict(zip(paths, combo))
            row["replicate"] = replicate
            row["seed"] = scenario.seed
            row.update(trace.summary.to_dict())
            row["crystallized"] = trace.outcome.crystallized
            table.rows.append(row)
    return table
