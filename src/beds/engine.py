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
seeds, one summary row per cell per replicate, each row one ``run``. With
periodic or scheduled arrivals nothing is drawn for the times, so a run's
precision side is a function of a few scenario values, its key, and a run's
noise is the first standard normals of its seed's stream, which the sweep
draws once per seed. The rows run key by key, whatever the grid's order,
and are emitted grid-major: a key's side is computed once and held
read-only, each batch of its rows evolves its means as the columns of one
loop (``dynamics.evolve_means``) and computes the rows' sampled means and
divergence on 2-D blocks of rows, and each row's ``run`` is handed its
finished trace. Such a trace keeps only the row's own columns beside the
held side, and assembles its samples and events on first read. Any other
run computes its own trace, through the same assembly (``_traces``), in
its own side's arrays.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .analysis import after_burn_in, kl_gaussian
from .core import (
    MAX_EXPECTED_COUNT,
    EnergyModel,
    NonMonotonicFlux,
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
    evolve_means,
    evolve_precision,
)
from .energy import EnergyLedger, observation_costs
from .fluxgen import FLUX_FIELDS, first_normals, fixed_count, generate_flux, target_mean_at
from .io import csv_text, write_csv

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
# Most sample-plus-event rows in one block of a batch's traces: the columns of
# a wide or long key's rows are computed a few rows at a time.
_TRACE_BLOCK = 8192
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
    read-only, since the runs of a sweep may share them. A sweep's row
    builds its samples and events when they are first read
    (``_LentTrace``).
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


class _LentTrace(RunTrace):
    """A batched row's trace: a held side and the row's own columns.

    ``columns`` are the row's mean_after (one per event), and its sampled
    mean and kl_to_target, rows of its block's. ``samples`` and ``events``
    are the side's, copied with those columns in, the first time each is
    read.
    """

    def __init__(self, side: _PrecisionSide, columns: tuple, outcome: CrystallizationOutcome, summary: Summary):
        self._side, self._columns = side, columns
        self.outcome, self.ledger, self.summary = outcome, side.ledger, summary
        self.power_window, self.clamped = side.power_window, side.clamped

    @cached_property
    def samples(self) -> np.ndarray:
        _, mean, kl = self._columns
        return _with_columns(self._side.samples, mean=mean, kl_to_target=kl)

    @cached_property
    def events(self) -> np.ndarray:
        return _with_columns(self._side.events, mean_after=self._columns[0])


def _with_columns(held: np.ndarray, **columns: np.ndarray) -> np.ndarray:
    """A writeable copy of the structured array ``held`` with the named columns set."""

    out = held.copy()
    for name, column in columns.items():
        out[name] = column
    return out


def run(scenario: Scenario, observations: np.ndarray | None = None, *, batched: RunTrace | None = None) -> RunTrace:
    """Simulate one scenario deterministically.

    Observation costs are priced at the pre-update precision, after
    dissipation to the arrival instant. Passing ``observations`` replays an
    explicit flux instead of generating one from the scenario's flux spec: a
    1-D structured array with the float fields of ``fluxgen.FLUX_FIELDS`` in
    non-decreasing time order, as returned by ``generate_flux`` or
    ``flux_from_csv``.

    ``batched`` is the trace ``sweep`` built for this scenario with the rest
    of its batch, equal to the one computed without it; it is returned as it
    is, unvalidated, since ``sweep`` has validated the row's cell and a row
    differs from its cell only in the seed. So each sweep row stays one call
    of ``run``, for whatever wraps it to count runs.
    """

    if batched is not None:
        return batched
    validate_scenario(scenario)
    if observations is not None:
        flux = _checked_flux(observations)
    else:
        flux = generate_flux(scenario.flux_spec, scenario.problem.target, scenario.horizon, scenario.seed)
    side = _precision_side(flux, *_side_key(scenario)[2:])
    # The means overwrite the flux values in the side's own events; nothing
    # reads the flux after them.
    means = side.events["mean_after"][:, None]
    means[:, 0] = flux["value"][: len(means)]
    evolve_means([scenario.beds.initial_belief.mean], means, flux["obs_precision"], side.events["precision_before"])
    del flux
    [trace] = _traces([scenario], side, means)
    return trace


def _side_key(scenario: Scenario) -> tuple:
    """What a run's precision side is a function of, unless its arrivals are Poisson.

    ``key[2:]`` is every value ``_precision_side`` reads besides the flux.
    Without Poisson draws, the arrival spec, the horizon and obs_precision
    fix the flux's times and precisions, the only flux columns it reads.
    """

    beds, spec = scenario.beds, scenario.flux_spec
    return (
        spec.arrival,
        spec.obs_precision,
        beds.initial_belief.precision,
        beds.gamma,
        beds.epsilon,
        scenario.energy_model,
        scenario.horizon,
        scenario.sample_dt,
        scenario.problem.t0,
    )


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
    # Free each per-event list as soon as it has been read: they hold a
    # long run's memory peak.
    del times, obs_precisions
    events = np.zeros(n, dtype=_EVENT_DTYPE)
    events["precision_before"] = precision_before
    events["precision_after"] = precision_after
    del precision_before, precision_after
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


def _traces(scenarios: list[Scenario], side: _PrecisionSide, means: np.ndarray) -> Iterator[RunTrace]:
    """The traces of ``scenarios`` on ``side``, column ``j`` of ``means`` (events x rows) being row ``j``'s means.

    The rows differ only outside the side's key. Their sampled means and
    divergence are computed in blocks of at most about _TRACE_BLOCK
    sample-plus-event rows, as plain 2-D columns: each block gathers its
    rows' sampled means at once, and computes their divergence and its
    maximum after the burn-in. A writeable side is one run's own, whose
    events hold its means already: its trace is built in the side's arrays,
    _TRACE_BLOCK samples at a time. A held side's rows are lent traces,
    which keep their columns beside the side. Each trace's ledger is the
    side's.
    """

    n, m = len(side.events), len(side.samples)
    own = side.events.flags.writeable
    step = 1 if own else max(1, _TRACE_BLOCK // (n + m))
    highest = side.events["precision_after"].max().item() if n else None
    for lo in range(0, len(scenarios), step):
        chunk = scenarios[lo : lo + step]
        targets = [scenario.problem.target for scenario in chunk]
        precisions_p = [1.0 / target.target_variance for target in targets]
        # As for the totals, a replayed row may leave the divergence's
        # precision ratios non-finite, in the order kl_gaussian divides, on
        # the highest precision the rows reach.
        for p in precisions_p if n else ():
            if not (math.isfinite(highest / p) and math.isfinite(p / highest)):
                message = f"must keep the divergence of the highest precision finite, got {highest!r}"
                raise ValidationError([Violation("budget_exceeded", "observations", message)])
        mean_after = means[:, lo : lo + step].T
        initial = [[scenario.beds.initial_belief.mean] for scenario in chunk]
        # Each row's mean after each event, column 0 its initial one.
        state_mean = np.concatenate((initial, mean_after), axis=1)
        # target_mean_at, one target per row. A precision that every row
        # shares stays a float, so kl_gaussian computes its terms in it once.
        theta0, velocity = np.array([[target.theta0, target.velocity] for target in targets]).T[..., None]
        precision_p = precisions_p[0] if len(set(precisions_p)) == 1 else np.array(precisions_p)[:, None]
        # A run's own columns are filled in place, so many samples at a time
        # that a long run holds no full-length temporaries.
        width = _TRACE_BLOCK if own else max(m, 1)
        for a in range(0, max(m, 1), width):
            mean = state_mean[:, side.last[a : a + width]]
            mean_p = theta0 + velocity * side.samples["t"][a : a + width]
            kl = kl_gaussian(mean, side.samples["precision"][a : a + width], mean_p, precision_p)
            if own:
                side.samples["mean"][a : a + width], side.samples["kl_to_target"][a : a + width] = mean[0], kl[0]
        if own:
            kl = side.samples["kl_to_target"][None]
        # t0 is in the key: every row has the same burn-in.
        max_kl = after_burn_in(side.samples, chunk[0].problem.t0, kl, np.max).tolist()
        for j, scenario in enumerate(chunk):
            outcome = NOT_CRYSTALLIZED
            if side.halted_at is not None:
                t = side.halted_at
                outcome = check_crystallization(
                    mean_after[j, -1].item(),
                    side.events["precision_after"][-1].item(),
                    t,
                    scenario.beds.epsilon,
                    target_mean_at(targets[j], t),
                    scenario.problem.delta,
                )
            summary = Summary(max_kl_after_t0=max_kl[j], **side.summary)
            if own:
                yield RunTrace(side.samples, side.events, outcome, side.ledger, summary, side.power_window, side.clamped)
            else:
                yield _LentTrace(side, (mean_after[j], mean[j], kl[j]), outcome, summary)
        # Drop this block before the next one is allocated.
        del mean_after, state_mean, mean, kl


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
    # left 0; also returns the event count at or before each sample. This
    # sets the memory peak of a long run, so each temporary column is freed
    # as soon as it has been used.
    t = np.arange(int(math.floor(horizon / sample_dt * (1.0 + 1e-12))) + 1) * sample_dt
    t = t[t < halted_at] if halted_at is not None else t[t <= horizon]
    last = np.searchsorted(ledger.times, t, side="right")
    dts = t - np.concatenate(([0.0], ledger.times))[last]
    state_precision = np.concatenate(([precision], events["precision_after"]))[last]
    precision = dissipate(state_precision, dts, gamma)
    del dts, state_precision

    samples = np.zeros(len(t), dtype=_SAMPLE_DTYPE)
    samples["t"] = t
    samples["precision"] = precision
    samples["variance"] = np.divide(1.0, precision, out=precision)
    del precision

    lo = np.searchsorted(ledger.times, t - power_window, side="right")
    del t
    padded = np.concatenate(([0.0], ledger.cumulative))
    samples["cumulative_energy"] = padded[last]
    window = padded[lo]
    del padded, lo
    np.subtract(samples["cumulative_energy"], window, out=window)
    samples["windowed_power"] = np.divide(window, power_window, out=window)
    return samples, last


def trace_to_csv(trace: RunTrace, handle=None) -> str | None:
    """The sample series as CSV, one column per sample field.

    Streams the bytes to the binary ``handle`` block by block when one is
    given (see :func:`beds.io.write_csv`); returns the text otherwise.
    """

    columns = [trace.samples[name] for name in SAMPLE_FIELDS]
    if handle is None:
        return csv_text(SAMPLE_FIELDS, columns)
    write_csv(handle, SAMPLE_FIELDS, columns)
    return None


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
        columns = [[row[name] for row in self.rows] for name in header]
        # Float columns go to csv_text's vectorized kernel; a column with an
        # int (replicate, seed, observation_count, an integer grid value)
        # keeps format_float's integer text.
        return csv_text(header, [np.array(c) if all(type(v) is float for v in c) else c for c in columns])


def sweep(
    base: Scenario,
    grid: list[tuple[str, list[float]]],
    replicates: int = 1,
) -> SweepTable:
    """Run the Cartesian product of grid values times replicate seeds.

    Grid entries are (dotted scenario path, values); paths must address
    numeric fields other than ``seed``, each at most once. Replicate ``i``
    runs with seed base.seed + i. Row order is grid-major, replicate-minor.
    Every cell's scenario is built and validated before the first run, and a
    sweep whose runs expect more than MAX_SWEEP_COUNT observations and
    samples in all is rejected.

    Each row is one ``run``. Each replicate seed's first normals, as many as
    the longest noisy periodic or scheduled cell reads, are drawn once
    before the first run, unless the replicates times that count exceed
    core.MAX_EXPECTED_COUNT: each row then draws its own. The rows run key
    by key (``_run_key``), so each precision side is computed once.
    """

    if replicates < 1:
        raise ValueError(f"replicates: must be >= 1, got {replicates!r}")
    paths = [path for path, _ in grid]
    if "seed" in paths:
        raise UnknownParameterPath(
            "seed: cannot be swept; replicate i runs at base.seed + i, so set the base seed instead"
        )
    for path in paths:
        if paths.count(path) > 1:
            raise ValueError(f"{path}: is given {paths.count(path)} times in the grid; list its values in one entry")
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
    # Each replicate seed's longest noise prefix: at most one run's flux column in all.
    fixed = [cell for cell in cells if not isinstance(cell.flux_spec.arrival, PoissonArrival)]
    noisy = [cell for cell in fixed if cell.flux_spec.noise == "noisy"]
    longest = max((fixed_count(cell.flux_spec.arrival, cell.horizon) for cell in noisy), default=0)
    seeds = [(base.seed + replicate) % 2**64 for replicate in range(replicates)]
    normals: dict[int, np.ndarray] = {}
    if 0 < replicates * longest <= MAX_EXPECTED_COUNT:
        for seed in seeds:
            normals[seed] = first_normals(seed, longest)
            normals[seed].flags.writeable = False
    scenarios = [dataclasses.replace(cell, seed=seed) for cell in cells for seed in seeds]
    # Rows grouped by precision-side key, in order of first appearance; a
    # Poisson row is a group of its own, under its row index.
    groups: dict[object, list[int]] = {}
    for index, scenario in enumerate(scenarios):
        poisson = isinstance(scenario.flux_spec.arrival, PoissonArrival)
        groups.setdefault(index if poisson else _side_key(scenario), []).append(index)
    summaries: list[Summary | None] = [None] * len(scenarios)
    for indices in groups.values():
        for index, trace in zip(indices, _run_key([scenarios[i] for i in indices], normals)):
            summaries[index] = trace.summary
    table = SweepTable(params=paths)
    rows = itertools.product(combos, enumerate(seeds))
    for (combo, (replicate, seed)), summary in zip(rows, summaries):
        row = dict(zip(paths, combo))
        row["replicate"] = replicate
        row["seed"] = seed
        row.update(vars(summary))
        table.rows.append(row)
    return table


def _run_key(scenarios: list[Scenario], normals: dict[int, np.ndarray]) -> Iterator[RunTrace]:
    """The traces of ``scenarios``, rows of one precision-side key, each from one ``run``.

    A Poisson row is a key of its own and runs as ``run(scenario)``. Other
    rows run in batches, on ``normals`` (by seed) where they hold enough:
    the key's side is computed from the first row's flux and held
    read-only; each batch's means evolve as the columns of one
    (events x rows) loop, ``dynamics.evolve_means``; ``_traces`` builds the
    batch's traces, and each row's ``run`` is handed its own. The batches
    of a key hold at most about MAX_EXPECTED_COUNT means each, so a wide key
    splits, and each row's flux is dropped once its values are in the block.
    """

    first = scenarios[0]
    if isinstance(first.flux_spec.arrival, PoissonArrival):
        yield run(first)
        return
    width = max(1, int(MAX_EXPECTED_COUNT // max(fixed_count(first.flux_spec.arrival, first.horizon), 1)))
    side = None
    for lo in range(0, len(scenarios), width):
        batch = scenarios[lo : lo + width]
        for j, scenario in enumerate(batch):
            spec, seed = scenario.flux_spec, scenario.seed
            flux = generate_flux(spec, scenario.problem.target, scenario.horizon, seed, normals.get(seed))
            if side is None:
                side = _precision_side(flux, *_side_key(scenario)[2:])
                for column in (side.events, side.samples, side.last):
                    column.flags.writeable = False
                n = len(side.events)
                obs_precisions = flux["obs_precision"][:n].copy()
            if j == 0:
                values = np.empty((n, len(batch)))
            values[:, j] = flux["value"][:n]
            del flux
        starts = [scenario.beds.initial_belief.mean for scenario in batch]
        means = evolve_means(starts, values, obs_precisions, side.events["precision_before"])
        for scenario, trace in zip(batch, _traces(batch, side, means)):
            yield run(scenario, batched=trace)
        # Free this batch's blocks before the next batch allocates its own.
        del values, means, trace
