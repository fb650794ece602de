"""Event-driven simulation of a belief maintained against dissipation.

A run has two sides. The precision side never reads an observed value:
``dynamics.evolve_precision`` applies closed-form dissipation to each
arrival and adds the observation's precision, stopping at the first
crystallized belief, and the rest is computed on the resulting columns:
each observation's energy charge at its pre-update precision, the ledger's
running totals, and fixed-step precision and power samples interpolated
from the last event by the same closed form, so sampling density never
perturbs the trajectory. The mean side then runs
``dynamics.evolve_mean`` along that precision path and derives the sampled
means, their divergence from the target and the crystallization outcome.
A crystallized run halts: nothing is recorded afterwards.

Sweeps run the Cartesian product of parameter overrides and replicate
seeds, one summary row per cell per replicate, and share work two ways.
Across seeds: the replicates of a cell with periodic or scheduled arrivals
observe at the same times, so they share its first run's precision side and
recompute only the mean side. Across cells: the noise of such a run is the
first standard normals of its seed's stream, so every cell reads each
replicate seed's normals from one memo, drawn once per sweep.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .analysis import after_burn_in, kl_gaussian
from .core import (
    MAX_EXPECTED_COUNT,
    NonMonotonicFlux,
    PeriodicArrival,
    PoissonArrival,
    Scenario,
    UnknownParameterPath,
    ValidationError,
    Violation,
    expected_counts,
    scenario_from_dict,
    scenario_to_dict,
    set_path,
    validate_scenario,
)
from .dynamics import (
    NOT_CRYSTALLIZED,
    PRECISION_FLOOR,
    CrystallizationOutcome,
    check_crystallization,
    dissipate,
    evolve_mean,
    evolve_precision,
)
from .energy import EnergyLedger, observation_costs
from .fluxgen import FLUX_FIELDS, generate_flux, target_mean_at
from .io import csv_text

__all__ = [
    "MAX_SWEEP_COUNT",
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
_EVENT_DTYPE = np.dtype([(name, np.float64) for name in ("precision_before", "mean_after", "precision_after")])
# Most observations plus samples a sweep may expect over all its runs: a
# hundred runs at core.MAX_EXPECTED_COUNT each, checked before the first run.
MAX_SWEEP_COUNT = 10**8


@dataclass(frozen=True)
class Summary:
    """Aggregates over one run; time averages exclude the burn-in [0, t0].

    When no sample falls after ``t0``, the three ``*_after_t0`` fields are nan
    (``null`` in summary.json, ``nan`` in sweep.csv).
    """

    mean_precision_after_t0: float
    max_kl_after_t0: float
    mean_windowed_power_after_t0: float
    observation_count: int
    total_energy: float
    total_info: float


@dataclass
class RunTrace:
    """Everything recorded about one run.

    ``samples`` is a structured array with fields t, mean, precision,
    variance, kl_to_target, cumulative_energy, windowed_power, at multiples
    of the scenario's sample_dt up to the horizon or the crystallization
    time, whichever is earlier. ``events`` is a structured array with
    fields precision_before, mean_after, precision_after: row ``i`` is
    the belief change of the observation that ``ledger`` charged as entry
    ``i``, whose time, energy and information live in the ledger only; its
    mean before is row ``i - 1``'s mean_after (the initial mean for row 0).
    ``power_window`` is the width of the sliding window behind the
    windowed_power samples, horizon / 10. ``clamped`` flags that the
    precision floor was hit at least once. ``scenario`` is the scenario
    that ``run`` simulated. The ledger's columns are read-only, since runs
    that take this one as ``sibling`` share them.
    """

    samples: np.ndarray
    events: np.ndarray
    outcome: CrystallizationOutcome
    ledger: EnergyLedger
    summary: Summary
    power_window: float
    clamped: bool = False
    scenario: Scenario | None = None


def run(
    scenario: Scenario,
    observations: np.ndarray | None = None,
    *,
    sibling: RunTrace | None = None,
    normals_memo: dict[int, np.ndarray] | None = None,
) -> RunTrace:
    """Simulate one scenario deterministically.

    Observation costs are priced at the pre-update precision, after
    dissipation to the arrival instant. Passing ``observations`` replays an
    explicit flux instead of generating one from the scenario's flux spec: a
    1-D structured array with the float fields of ``fluxgen.FLUX_FIELDS`` in
    non-decreasing time order, as returned by ``generate_flux`` or
    ``flux_from_csv``.

    ``sibling`` is a finished run of the same scenario at another seed, with
    periodic or scheduled arrivals. Its precision side (the precision path,
    the halt, the ledger, the precision and power columns and totals, and
    ``clamped``) is then this run's too, since no observed value enters it:
    the run shares the sibling's read-only ledger arrays, copies its
    ``events`` and ``samples``, and recomputes only the mean side
    (``mean_after``, the mean and kl_to_target samples, the outcome's mean
    and accuracy, and ``max_kl_after_t0``). The trace equals a run without
    a sibling. A sibling of another scenario, of Poisson arrivals, of other
    observation times, or beside ``observations`` raises ValueError.

    ``normals_memo`` is passed to ``generate_flux``: runs at the same seeds
    share their noise draws through it, and the trace is the same without it.
    """

    validate_scenario(scenario)
    if observations is None:
        target, horizon, seed = scenario.problem.target, scenario.horizon, scenario.seed
        flux = generate_flux(scenario.flux_spec, target, horizon, seed, normals_memo)
    else:
        flux = _checked_flux(observations)
    if sibling is None:
        evolved = _evolve(scenario, flux)
    else:
        _check_sibling(scenario, observations, flux, sibling)
        evolved = _evolve_means_on(sibling, scenario, flux)
    return _with_mean_side(scenario, evolved)


@dataclass(frozen=True)
class _Evolved:
    """A run after its loops: every event column, and the precision side of the rest.

    ``samples`` holds every column but mean and kl_to_target, and ``last``
    is, per sample, the number of events at or before it. ``halted_at`` is
    the crystallization time, None when the run did not halt. The four
    floats are the summary fields of the same names.
    """

    events: np.ndarray
    ledger: EnergyLedger
    samples: np.ndarray
    last: np.ndarray
    halted_at: float | None
    mean_precision_after_t0: float
    mean_windowed_power_after_t0: float
    total_energy: float
    total_info: float
    clamped: bool
    power_window: float


def _evolve(scenario: Scenario, flux: np.ndarray) -> _Evolved:
    """Apply ``flux``: both loops, the ledger, and the precision side of the samples and summary."""

    beds = scenario.beds
    times, obs_precisions = flux["time"].tolist(), flux["obs_precision"].tolist()
    precision_before, precision_after, halted = evolve_precision(
        beds.initial_belief.precision, times, obs_precisions, beds.gamma, beds.epsilon
    )
    n = len(precision_after)
    mean_after = evolve_mean(
        beds.initial_belief.mean, flux["value"][:n].tolist(), obs_precisions, precision_before, precision_after
    )
    halted_at = times[n - 1] if halted else None
    events = np.empty(n, dtype=_EVENT_DTYPE)
    events["precision_before"] = precision_before
    events["mean_after"] = mean_after
    events["precision_after"] = precision_after
    # The arrays hold every column now: free the per-event lists first.
    del times, obs_precisions, precision_before, mean_after, precision_after
    energies, infos = observation_costs(
        scenario.energy_model, events["precision_before"], flux["obs_precision"][:n]
    )
    ledger = EnergyLedger.from_columns(flux["time"][:n], energies, infos, scenario.energy_model.kBT)
    # Runs with this one as their sibling share these arrays.
    for column in (ledger.times, ledger.energies, ledger.infos, ledger.cumulative):
        column.flags.writeable = False
    totals = (ledger.cumulative_energy, ledger.cumulative_info)
    if not all(map(math.isfinite, totals)):
        # Validation bounds the charges of a generated flux; a replayed row may
        # observe a belief far below its own precision and gain inf nats.
        message = "must keep the total energy and information finite, got {!r} and {!r}".format(*totals)
        raise ValidationError([Violation("budget_exceeded", "observations", message)])
    if n:
        # Likewise for the divergence's precision ratios in the order
        # kl_gaussian divides, on the highest precision the rows reach.
        highest = events["precision_after"].max().item()
        precision_p = 1.0 / scenario.problem.target.target_variance
        if not (math.isfinite(highest / precision_p) and math.isfinite(precision_p / highest)):
            message = f"must keep the divergence of the highest precision finite, got {highest!r}"
            raise ValidationError([Violation("budget_exceeded", "observations", message)])

    power_window = scenario.horizon / 10.0
    samples, last = _precision_samples(scenario, events, ledger, halted_at, power_window)
    t0 = scenario.problem.t0
    clamped = bool(
        beds.initial_belief.precision <= PRECISION_FLOOR
        or np.any(events["precision_before"] <= PRECISION_FLOOR)
        or np.any(samples["precision"] <= PRECISION_FLOOR)
    )
    return _Evolved(
        events=events,
        ledger=ledger,
        samples=samples,
        last=last,
        halted_at=halted_at,
        mean_precision_after_t0=after_burn_in(samples, t0, "precision", np.mean),
        mean_windowed_power_after_t0=after_burn_in(samples, t0, "windowed_power", np.mean),
        total_energy=totals[0],
        total_info=totals[1],
        clamped=clamped,
        power_window=power_window,
    )


def _check_sibling(scenario: Scenario, observations: object, flux: np.ndarray, sibling: RunTrace) -> None:
    """Raise ValueError unless ``sibling``'s precision side is this run's."""

    if observations is not None:
        raise ValueError("sibling: a replayed flux cannot reuse another run's precision path")
    if sibling.scenario is None or dataclasses.replace(sibling.scenario, seed=scenario.seed) != scenario:
        raise ValueError("sibling: must be a run of the same scenario at another seed")
    if isinstance(scenario.flux_spec.arrival, PoissonArrival):
        raise ValueError("sibling: Poisson arrival times differ from seed to seed")
    n = len(sibling.ledger)
    if not (
        len(flux) >= n
        and (sibling.outcome.crystallized or len(flux) == n)
        and np.array_equal(flux["time"][:n], sibling.ledger.times)
    ):
        raise ValueError("sibling: its observation times up to the halt differ from this run's")


def _evolve_means_on(sibling: RunTrace, scenario: Scenario, flux: np.ndarray) -> _Evolved:
    """As ``_evolve``, but on ``sibling``'s precision side: only the events' means are new.

    Shares the sibling's read-only ledger arrays, and copies its events and
    samples.
    """

    events = sibling.events.copy()
    n = len(events)
    events["mean_after"] = evolve_mean(
        scenario.beds.initial_belief.mean,
        flux["value"][:n].tolist(),
        flux["obs_precision"][:n].tolist(),
        events["precision_before"].tolist(),
        events["precision_after"].tolist(),
    )
    summary, ledger = sibling.summary, copy.copy(sibling.ledger)
    return _Evolved(
        events=events,
        ledger=ledger,
        samples=sibling.samples.copy(),
        last=np.searchsorted(ledger.times, sibling.samples["t"], side="right"),
        halted_at=sibling.outcome.time,
        mean_precision_after_t0=summary.mean_precision_after_t0,
        mean_windowed_power_after_t0=summary.mean_windowed_power_after_t0,
        total_energy=summary.total_energy,
        total_info=summary.total_info,
        clamped=sibling.clamped,
        power_window=sibling.power_window,
    )


def _with_mean_side(scenario: Scenario, evolved: _Evolved) -> RunTrace:
    """The trace of ``evolved``, with its mean side derived from the events' means.

    Fills the samples' mean and kl_to_target columns in place.
    """

    events, samples = evolved.events, evolved.samples
    initial, target = scenario.beds.initial_belief, scenario.problem.target
    outcome = NOT_CRYSTALLIZED
    if evolved.halted_at is not None:
        t = evolved.halted_at
        outcome = check_crystallization(
            events["mean_after"][-1].item(),
            events["precision_after"][-1].item(),
            t,
            scenario.beds.epsilon,
            target_mean_at(target, t),
            scenario.problem.delta,
        )
    mean = np.concatenate(([initial.mean], events["mean_after"]))[evolved.last]
    samples["mean"] = mean
    samples["kl_to_target"] = kl_gaussian(
        mean, samples["precision"], target_mean_at(target, samples["t"]), 1.0 / target.target_variance
    )
    summary = Summary(
        mean_precision_after_t0=evolved.mean_precision_after_t0,
        max_kl_after_t0=after_burn_in(samples, scenario.problem.t0, "kl_to_target", np.max),
        mean_windowed_power_after_t0=evolved.mean_windowed_power_after_t0,
        observation_count=len(events),
        total_energy=evolved.total_energy,
        total_info=evolved.total_info,
    )
    return RunTrace(
        samples=samples,
        events=events,
        outcome=outcome,
        ledger=evolved.ledger,
        summary=summary,
        power_window=evolved.power_window,
        clamped=evolved.clamped,
        scenario=scenario,
    )


def _checked_flux(flux: object) -> np.ndarray:
    """Reject a replayed flux of the wrong shape, with a non-finite cell or a decreasing time."""

    expected = f"a replayed flux must be a 1-D structured array with float fields {', '.join(FLUX_FIELDS)}"
    if not isinstance(flux, np.ndarray):
        raise ValueError(f"{expected}, got {type(flux).__name__}")
    names = flux.dtype.names or ()
    if flux.ndim != 1 or not all(name in names and flux.dtype[name].kind == "f" for name in FLUX_FIELDS):
        raise ValueError(f"{expected}, got a {flux.ndim}-D array of dtype {flux.dtype}")
    for name in FLUX_FIELDS:
        bad = np.flatnonzero(~np.isfinite(flux[name]))
        if len(bad):
            raise ValueError(f"flux row {bad[0]}: {name} must be finite, got {flux[name][bad[0]]}")
    back = np.flatnonzero(np.diff(flux["time"]) < 0)
    if len(back):
        earlier, later = flux["time"][back[0] : back[0] + 2].tolist()
        raise NonMonotonicFlux(f"observation at t={later!r} precedes t={earlier!r}")
    return flux


def _precision_samples(
    scenario: Scenario,
    events: np.ndarray,
    ledger: EnergyLedger,
    halted_at: float | None,
    power_window: float,
) -> tuple[np.ndarray, np.ndarray]:
    # Samples at multiples of sample_dt run up to the horizon, or stop strictly
    # before the halting observation. Each is the last event's belief at or
    # before it (row 0: the initial belief at time 0), dissipated to the sample
    # instant, so an observation at a sample instant is applied first and
    # sampling never advances the state. The mean and kl_to_target columns are
    # left 0; also returns the event count at or before each sample.
    horizon, sample_dt = scenario.horizon, scenario.sample_dt
    t = np.arange(int(math.floor(horizon / sample_dt * (1.0 + 1e-12))) + 1) * sample_dt
    t = t[t < halted_at] if halted_at is not None else t[t <= horizon]
    last = np.searchsorted(ledger.times, t, side="right")
    initial = scenario.beds.initial_belief
    state_t = np.concatenate(([0.0], ledger.times))[last]
    state_precision = np.concatenate(([initial.precision], events["precision_after"]))[last]
    precision = dissipate(state_precision, t - state_t, scenario.beds.gamma)

    samples = np.zeros(len(t), dtype=_SAMPLE_DTYPE)
    samples["t"] = t
    samples["precision"] = precision
    samples["variance"] = 1.0 / precision

    lo = np.searchsorted(ledger.times, t - power_window, side="right")
    padded = np.concatenate(([0.0], ledger.cumulative))
    samples["cumulative_energy"] = padded[last]
    samples["windowed_power"] = (padded[last] - padded[lo]) / power_window
    return samples, last


def trace_to_csv(trace: RunTrace) -> str:
    """Render the sample series as CSV with one column per sample field."""

    return csv_text(SAMPLE_FIELDS, [trace.samples[name] for name in SAMPLE_FIELDS])


def summary_to_dict(trace: RunTrace) -> dict:
    out = asdict(trace.summary)
    out["outcome"] = asdict(trace.outcome)
    out["clamped"] = trace.clamped
    out["power_window"] = trace.power_window
    return out


@dataclass
class SweepTable:
    """Flat result table for a sweep: one row per grid cell per replicate."""

    params: list[str]
    rows: list[dict] = field(default_factory=list)

    def to_csv(self) -> str:
        header = [*self.params, "replicate", "seed", *(f.name for f in fields(Summary))]
        return csv_text(header, [[row[name] for row in self.rows] for name in header])


def sweep(
    base: Scenario,
    grid: list[tuple[str, list[float]]],
    replicates: int = 1,
) -> SweepTable:
    """Run the Cartesian product of grid values times replicate seeds.

    Grid entries are (dotted scenario path, values); paths must address
    numeric fields other than ``seed``. Replicate ``i`` runs with seed
    base.seed + i, and a cell without Poisson arrivals passes its first
    run to the others as ``run``'s ``sibling``. Every run gets the same
    ``normals_memo``, made for this call and dropped on return, unless
    the replicates times the most normals a cell reads from it exceed
    core.MAX_EXPECTED_COUNT; then each run draws its own. Row order is
    grid-major, replicate-minor. Every cell's scenario is built and
    validated before the first run, and a sweep whose runs expect more
    than MAX_SWEEP_COUNT observations and samples in all is rejected.
    """

    if replicates < 1:
        raise ValueError(f"replicates: must be >= 1, got {replicates!r}")
    paths = [path for path, _ in grid]
    if "seed" in paths:
        raise UnknownParameterPath(
            "seed: cannot be swept; replicate i runs at base.seed + i, so set the base seed instead"
        )
    combos = list(itertools.product(*(values for _, values in grid)))
    base_dict = scenario_to_dict(base)
    cells = []
    for combo in combos:
        raw = copy.deepcopy(base_dict)
        for path, value in zip(paths, combo):
            old = set_path(raw, path, value)
            if isinstance(old, bool) or not isinstance(old, (int, float)):
                raise UnknownParameterPath(f"scenario field {path!r} is not numeric")
        cells.append(validate_scenario(scenario_from_dict(raw)))
    total = replicates * sum(count for cell in cells for _, _, count in expected_counts(cell))
    if total > MAX_SWEEP_COUNT:
        raise ValueError(
            f"replicates: {replicates} per grid cell over {len(cells)} cell(s) expect about "
            f"{total:.3g} observations and samples, above the sweep budget of {MAX_SWEEP_COUNT:.0e}"
        )
    # The memo holds each replicate seed's longest noise prefix, at most
    # one run's flux column in all.
    most = max(map(_memo_normals, cells), default=0.0)
    normals_memo = {} if replicates * most <= MAX_EXPECTED_COUNT else None
    table = SweepTable(params=paths)
    for combo, cell in zip(combos, cells):
        # Periodic or scheduled arrivals give every replicate the same
        # precision side: the cell's first run lends it to the others.
        sibling = None
        for replicate in range(replicates):
            scenario = dataclasses.replace(cell, seed=(base.seed + replicate) % 2**64)
            trace = run(scenario, sibling=sibling, normals_memo=normals_memo)
            if sibling is None and not isinstance(cell.flux_spec.arrival, PoissonArrival):
                sibling = trace
            row = dict(zip(paths, combo))
            row["replicate"] = replicate
            row["seed"] = scenario.seed
            row.update(vars(trace.summary))
            table.rows.append(row)
    return table


def _memo_normals(cell: Scenario) -> float:
    """How many of each seed's normals a run of ``cell`` reads from a sweep's memo.

    Only noisy cells without Poisson arrivals read any.
    """

    spec = cell.flux_spec
    if spec.noise != "noisy" or isinstance(spec.arrival, PoissonArrival):
        return 0.0
    if isinstance(spec.arrival, PeriodicArrival):
        return cell.horizon / spec.arrival.period
    return float(len(spec.arrival.times))
