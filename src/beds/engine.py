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
seeds, one summary row per cell per replicate, and their runs share one
``SweepMemo``. With periodic or scheduled arrivals nothing is drawn for the
times, so a run's precision side is a function of a few scenario values,
its key: the runs of a cell, and the next cells that differ only outside
the key, reuse the last side and compute only the mean side. And a run's
noise is the first standard normals of its seed's stream, so every cell
reads each replicate seed's normals from the memo, drawn once per sweep.
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
    EnergyModel,
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
    "SweepMemo",
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
# Rows per block of the mean loop, whose per-event lists then add little to a
# run's peak memory.
_MEAN_BLOCK = 4096
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
    precision floor was hit at least once. The ledger's columns are
    read-only, since the runs of a sweep may share them.
    """

    samples: np.ndarray
    events: np.ndarray
    outcome: CrystallizationOutcome
    ledger: EnergyLedger
    summary: Summary
    power_window: float
    clamped: bool = False


@dataclass(frozen=True)
class _PrecisionSide:
    """What ``_precision_side`` computes: a run up to its observed values.

    ``events`` and ``samples`` leave their mean_after, mean and kl_to_target
    columns 0, and ``last`` is, per sample, the number of events at or
    before it. ``halted_at`` is the crystallization time, None when the run
    did not halt. ``summary`` holds the ``Summary`` fields of this side.
    """

    events: np.ndarray
    ledger: EnergyLedger
    samples: np.ndarray
    last: np.ndarray
    halted_at: float | None
    clamped: bool
    power_window: float
    summary: dict


@dataclass
class SweepMemo:
    """Work that the runs of one sweep share through ``run``'s ``shared``.

    ``normals`` maps each seed to the standard normals drawn at it so far
    (``generate_flux``'s memo), or is None to draw them per run. ``side`` is
    the last precision side a run computed, and ``key`` the inputs it was
    computed from.
    """

    normals: dict[int, np.ndarray] | None = field(default_factory=dict)
    key: tuple | None = None
    side: _PrecisionSide | None = None


def run(scenario: Scenario, observations: np.ndarray | None = None, *, shared: SweepMemo | None = None) -> RunTrace:
    """Simulate one scenario deterministically.

    Observation costs are priced at the pre-update precision, after
    dissipation to the arrival instant. Passing ``observations`` replays an
    explicit flux instead of generating one from the scenario's flux spec: a
    1-D structured array with the float fields of ``fluxgen.FLUX_FIELDS`` in
    non-decreasing time order, as returned by ``generate_flux`` or
    ``flux_from_csv``.

    ``shared`` lends work between runs, and the trace is the same without
    it. ``generate_flux`` reads and extends its normals. A generated run
    without Poisson arrivals reuses its precision side when the side's key
    matches, and otherwise computes the side and holds it there, read-only,
    in place of the last one. Replays and Poisson runs never share a side.
    """

    validate_scenario(scenario)
    beds, spec = scenario.beds, scenario.flux_spec
    # Every value _precision_side reads besides the flux.
    inputs = (
        beds.initial_belief.precision,
        beds.gamma,
        beds.epsilon,
        scenario.energy_model,
        scenario.horizon,
        scenario.sample_dt,
        scenario.problem.t0,
    )
    if observations is not None:
        flux, shared = _checked_flux(observations), None
    else:
        normals = None if shared is None else shared.normals
        flux = generate_flux(spec, scenario.problem.target, scenario.horizon, scenario.seed, normals)
        if isinstance(spec.arrival, PoissonArrival):
            shared = None
    if shared is None:
        return _with_mean_side(scenario, flux, _precision_side(flux, *inputs))
    # Without Poisson draws, the arrival spec, the horizon and obs_precision
    # fix the flux's times and precisions, the only flux columns it reads.
    key = (spec.arrival, spec.obs_precision, *inputs)
    if shared.key != key:
        # Drop the held side first, so that one side is in memory at a time.
        shared.key = shared.side = None
        side = _precision_side(flux, *inputs)
        for column in (side.events, side.samples, side.last):
            column.flags.writeable = False
        shared.key, shared.side = key, side
    return _with_mean_side(scenario, flux, shared.side)


def _precision_side(
    flux: np.ndarray,
    precision: float,
    gamma: float,
    epsilon: float,
    energy_model: EnergyModel,
    horizon: float,
    sample_dt: float,
    t0: float,
) -> _PrecisionSide:
    """Apply ``flux``'s times and obs_precisions: the precision loop, the ledger and the precision samples.

    ``precision`` is the initial one. No observed value enters the result.
    """

    times, obs_precisions = flux["time"].tolist(), flux["obs_precision"].tolist()
    precision_before, precision_after, halted = evolve_precision(precision, times, obs_precisions, gamma, epsilon)
    n = len(precision_after)
    halted_at = times[n - 1] if halted else None
    events = np.zeros(n, dtype=_EVENT_DTYPE)
    events["precision_before"] = precision_before
    events["precision_after"] = precision_after
    # The arrays hold every column now: free the per-event lists first.
    del times, obs_precisions, precision_before, precision_after
    energies, infos = observation_costs(energy_model, events["precision_before"], flux["obs_precision"][:n])
    ledger = EnergyLedger.from_columns(flux["time"][:n], energies, infos, energy_model.kBT)
    for column in (ledger.times, ledger.energies, ledger.infos, ledger.cumulative):
        column.flags.writeable = False
    totals = (ledger.cumulative_energy, ledger.cumulative_info)
    if not all(map(math.isfinite, totals)):
        # Validation bounds the charges of a generated flux; a replayed row may
        # observe a belief far below its own precision and gain inf nats.
        message = "must keep the total energy and information finite, got {!r} and {!r}".format(*totals)
        raise ValidationError([Violation("budget_exceeded", "observations", message)])

    power_window = horizon / 10.0
    samples, last = _precision_samples(precision, gamma, events, ledger, halted_at, horizon, sample_dt, power_window)
    clamped = bool(
        precision <= PRECISION_FLOOR
        or np.any(events["precision_before"] <= PRECISION_FLOOR)
        or np.any(samples["precision"] <= PRECISION_FLOOR)
    )
    summary = {
        "mean_precision_after_t0": after_burn_in(samples, t0, "precision", np.mean),
        "mean_windowed_power_after_t0": after_burn_in(samples, t0, "windowed_power", np.mean),
        "observation_count": n,
        "total_energy": totals[0],
        "total_info": totals[1],
    }
    return _PrecisionSide(events, ledger, samples, last, halted_at, clamped, power_window, summary)


def _with_mean_side(scenario: Scenario, flux: np.ndarray, side: _PrecisionSide) -> RunTrace:
    """The trace of ``scenario`` on ``side``: the mean loop over ``flux``'s values, and what it feeds.

    Fills the mean-side columns of the side's events and samples in place,
    or of copies when the side is read-only (held by a ``SweepMemo``).
    """

    events, samples, ledger = side.events, side.samples, side.ledger
    if not events.flags.writeable:
        events, samples, ledger = events.copy(), samples.copy(), copy.copy(ledger)
    n = len(events)
    initial, target = scenario.beds.initial_belief, scenario.problem.target
    # The mean loop runs over blocks of rows, so that its per-event lists stay
    # small beside the side's arrays; each block starts from the last mean.
    columns = (flux["value"], flux["obs_precision"], events["precision_before"], events["precision_after"])
    start = initial.mean
    for lo in range(0, n, _MEAN_BLOCK):
        rows = slice(lo, min(lo + _MEAN_BLOCK, n))
        block = evolve_mean(start, *(column[rows].tolist() for column in columns))
        events["mean_after"][rows] = block
        start = block[-1]
    precision_p = 1.0 / target.target_variance
    if n:
        # As for the totals, a replayed row may leave the divergence's
        # precision ratios non-finite, in the order kl_gaussian divides, on
        # the highest precision the rows reach.
        highest = events["precision_after"].max().item()
        if not (math.isfinite(highest / precision_p) and math.isfinite(precision_p / highest)):
            message = f"must keep the divergence of the highest precision finite, got {highest!r}"
            raise ValidationError([Violation("budget_exceeded", "observations", message)])
    outcome = NOT_CRYSTALLIZED
    if side.halted_at is not None:
        t = side.halted_at
        outcome = check_crystallization(
            events["mean_after"][-1].item(),
            events["precision_after"][-1].item(),
            t,
            scenario.beds.epsilon,
            target_mean_at(target, t),
            scenario.problem.delta,
        )
    mean = np.concatenate(([initial.mean], events["mean_after"]))[side.last]
    samples["mean"] = mean
    samples["kl_to_target"] = kl_gaussian(mean, samples["precision"], target_mean_at(target, samples["t"]), precision_p)
    max_kl = after_burn_in(samples, scenario.problem.t0, "kl_to_target", np.max)
    summary = Summary(max_kl_after_t0=max_kl, **side.summary)
    return RunTrace(samples, events, outcome, ledger, summary, side.power_window, side.clamped)


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
    precision: float,
    gamma: float,
    events: np.ndarray,
    ledger: EnergyLedger,
    halted_at: float | None,
    horizon: float,
    sample_dt: float,
    power_window: float,
) -> tuple[np.ndarray, np.ndarray]:
    # Samples at multiples of sample_dt run up to the horizon, or stop strictly
    # before the halting observation. Each is the last event's belief at or
    # before it (row 0: the initial belief at time 0), dissipated to the sample
    # instant, so an observation at a sample instant is applied first and
    # sampling never advances the state. The mean and kl_to_target columns are
    # left 0; also returns the event count at or before each sample.
    t = np.arange(int(math.floor(horizon / sample_dt * (1.0 + 1e-12))) + 1) * sample_dt
    t = t[t < halted_at] if halted_at is not None else t[t <= horizon]
    last = np.searchsorted(ledger.times, t, side="right")
    state_t = np.concatenate(([0.0], ledger.times))[last]
    state_precision = np.concatenate(([precision], events["precision_after"]))[last]
    precision = dissipate(state_precision, t - state_t, gamma)

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
    base.seed + i. Every run gets the same ``SweepMemo`` as ``run``'s
    ``shared``, made for this call and dropped on return; it keeps no
    normals when the replicates times the most normals a cell reads from it
    exceed core.MAX_EXPECTED_COUNT. Row order is grid-major,
    replicate-minor. Every cell's scenario is built and validated before
    the first run, and a sweep whose runs expect more than MAX_SWEEP_COUNT
    observations and samples in all is rejected.
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
    # one run's flux column in all, and one run's precision side.
    most = max(map(_memo_normals, cells), default=0.0)
    memo = SweepMemo(normals={} if replicates * most <= MAX_EXPECTED_COUNT else None)
    table = SweepTable(params=paths)
    for combo, cell in zip(combos, cells):
        for replicate in range(replicates):
            scenario = dataclasses.replace(cell, seed=(base.seed + replicate) % 2**64)
            trace = run(scenario, shared=memo)
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
