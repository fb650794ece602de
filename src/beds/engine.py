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

Every trace is built one way (``_traces``), for ``run`` as for a sweep's
rows. With periodic or scheduled arrivals nothing is drawn for the times,
so a run's precision side is a function of a few scenario values, its key,
and a run's noise is the first standard normals of its seed's stream. A
key's side is computed once, from its first row's flux, and lent read-only
when rows share it; each batch of its rows evolves its means as the columns
of one loop (``dynamics.evolve_means``) and takes only their divergence
maximum after the burn-in, filling a side of its own on the way. A plain
run, a replay and a Poisson row are each a key of one row. Sweeps run the Cartesian product of
parameter overrides and replicate seeds, each row one ``run``, key by key
whatever the grid's order, and emit the rows grid-major.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, reduce

import numpy as np

from .analysis import after_burn_in, kl_gaussian
from .core import (
    MAX_EXPECTED_COUNT,
    EnergyModel,
    NegativeDt,
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
    precision floor was hit at least once.

    A trace is built from its run's precision side, scenario, means after
    each event and divergence maximum (``_traces``). ``samples`` and
    ``events`` are the side's own arrays, filled before the trace is built.
    When rows of a sweep share the side, which is then read-only, they are
    copies, filled the first time each is read. The ledger's columns are
    read-only, since the runs of a sweep may share them.
    """

    def __init__(self, side: _PrecisionSide, scenario: Scenario, mean_after: np.ndarray, max_kl: float):
        self._side, self._scenario, self._mean_after = side, scenario, mean_after
        self.ledger, self.power_window, self.clamped = side.ledger, side.power_window, side.clamped
        self.summary = Summary(max_kl_after_t0=max_kl, **side.summary)
        t, problem = side.halted_at, scenario.problem
        self.outcome = NOT_CRYSTALLIZED
        if t is not None:
            belief = (mean_after[-1].item(), side.events["precision_after"][-1].item())
            target_mean = target_mean_at(problem.target, t)
            self.outcome = check_crystallization(*belief, t, scenario.beds.epsilon, target_mean, problem.delta)
        if side.events.flags.writeable:
            # A side of its own holds its means, and was filled with its divergence.
            self.samples, self.events = side.samples, side.events

    @cached_property
    def samples(self) -> np.ndarray:
        samples = self._side.samples.copy()
        _divergence([self._scenario], self._side, self._mean_after[:, None], samples)
        return samples

    @cached_property
    def events(self) -> np.ndarray:
        events = self._side.events.copy()
        events["mean_after"] = self._mean_after
        return events


def run(scenario: Scenario, observations: np.ndarray | None = None, *, batched: RunTrace | None = None) -> RunTrace:
    """Simulate one scenario deterministically.

    Observation costs are priced at the pre-update precision, after
    dissipation to the arrival instant. Passing ``observations`` replays an
    explicit flux instead of generating one from the scenario's flux spec: a
    1-D structured array with the float fields of ``fluxgen.FLUX_FIELDS`` in
    non-decreasing time order, as returned by ``generate_flux`` or
    ``flux_from_csv``.

    ``batched`` is the trace ``sweep`` built for this scenario with the rest
    of its key, equal to the one computed without it; it is returned as it
    is, unvalidated, since ``sweep`` has validated the row's cell and a row
    differs from its cell only in the seed. It exists so that each sweep row
    stays one call of ``run``: the benchmark's tracer and tests count runs
    by wrapping this function. It can go once the program counts its own
    runs (ROADMAP item 1a).
    """

    if batched is not None:
        return batched
    validate_scenario(scenario)
    replay = None if observations is None else _checked_flux(observations)
    [trace] = _traces([scenario], {}, replay)
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


def _lent_traces(scenarios: list[Scenario], side: _PrecisionSide, means: np.ndarray) -> Iterator[RunTrace]:
    """The traces of ``scenarios`` on ``side``, row ``j``'s means after each event column ``j`` of ``means``.

    Their divergence maxima are taken about _TRACE_BLOCK sample-plus-event
    rows' worth at a time, filling a side of its own on the way.
    """

    own = side.samples if side.samples.flags.writeable else None
    step = max(1, _TRACE_BLOCK // (len(side.events) + len(side.samples)))
    for lo in range(0, len(scenarios), step):
        chunk = scenarios[lo : lo + step]
        max_kl = _divergence(chunk, side, means[:, lo : lo + step], own)
        for j, scenario in enumerate(chunk):
            yield RunTrace(side, scenario, means[:, lo + j], max_kl[j])


def _divergence(
    scenarios: list[Scenario], side: _PrecisionSide, means: np.ndarray, samples: np.ndarray | None = None
) -> list[float]:
    """Each row's divergence maximum after the burn-in, row ``j``'s means after each event column ``j`` of ``means``.

    The rows share the side's key, t0 included. Only the samples after t0
    are read, in 2-D blocks of at most _TRACE_BLOCK samples, unless one
    row's ``samples`` are given: then every sample's mean and kl_to_target
    are filled too.
    """

    tail = np.searchsorted(side.samples["t"], scenarios[0].problem.t0, side="right")
    start = 0 if samples is not None else tail
    t, precision, last = side.samples["t"][start:], side.samples["precision"][start:], side.last[start:]
    targets = [scenario.problem.target for scenario in scenarios]
    initial = [[scenario.beds.initial_belief.mean] for scenario in scenarios]
    # Each row's mean after each event, column 0 its initial one.
    state_mean = np.concatenate((initial, means.T), axis=1)
    # target_mean_at, one target per row. A precision that every row
    # shares stays a float, so kl_gaussian computes its terms in it once.
    theta0, velocity = np.array([[target.theta0, target.velocity] for target in targets]).T[..., None]
    precisions_p = [1.0 / target.target_variance for target in targets]
    precision_p = precisions_p[0] if len(set(precisions_p)) == 1 else np.array(precisions_p)[:, None]
    maxima = []
    for a in range(0, len(t), _TRACE_BLOCK):
        block = slice(a, a + _TRACE_BLOCK)
        mean = state_mean[:, last[block]]
        kl = kl_gaussian(mean, precision[block], theta0 + velocity * t[block], precision_p)
        if samples is not None:
            samples["mean"][block], samples["kl_to_target"][block] = mean[0], kl[0]
        past = kl[:, max(tail - start - a, 0) :]
        if past.size:
            maxima.append(past.max(axis=1))
    return reduce(np.maximum, maxima).tolist() if maxima else [math.nan] * len(scenarios)


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
    if len(flux) and flux["time"][0] < 0:
        raise NegativeDt(f"flux row 0: time must be >= 0, got {flux['time'][0].item()!r}")
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
    by key (``_traces``), so each precision side is computed once.
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
        for index, trace in zip(indices, _traces([scenarios[i] for i in indices], normals)):
            summaries[index] = run(scenarios[index], batched=trace).summary
    table = SweepTable(params=paths)
    rows = itertools.product(combos, enumerate(seeds))
    for (combo, (replicate, seed)), summary in zip(rows, summaries):
        row = dict(zip(paths, combo))
        row["replicate"] = replicate
        row["seed"] = seed
        row.update(vars(summary))
        table.rows.append(row)
    return table


def _traces(
    scenarios: list[Scenario], normals: dict[int, np.ndarray], replay: np.ndarray | None = None
) -> Iterator[RunTrace]:
    """The traces of ``scenarios``, the rows of one precision-side key, in order.

    A Poisson row, or a run of the flux ``replay``, is a key of one row. The
    side comes from the first row's flux and is read-only when rows share
    it. Each batch's means evolve as the columns of one (events x rows)
    loop, on ``normals`` (by seed) where they hold enough. A batch holds at
    most about MAX_EXPECTED_COUNT means, by the first flux's length, and
    each row's flux is dropped once its values are in the batch.
    """

    fluxes = (
        generate_flux(s.flux_spec, s.problem.target, s.horizon, s.seed, normals.get(s.seed)) for s in scenarios
    )
    flux = next(fluxes) if replay is None else replay
    side, shared = _precision_side(flux, *_side_key(scenarios[0])[2:]), len(scenarios) > 1
    if shared:
        for column in (side.events, side.samples, side.last):
            column.flags.writeable = False
    n, width = len(side.events), max(1, int(MAX_EXPECTED_COUNT // max(len(flux), 1)))
    obs_precisions = flux["obs_precision"][:n].copy()
    for lo in range(0, len(scenarios), width):
        batch = scenarios[lo : lo + width]
        # A side of its own takes its row's means in its events' mean_after column.
        values = np.empty((n, len(batch))) if shared else side.events["mean_after"][:, None]
        for j in range(len(batch)):
            if lo + j:  # Row 0's flux is the one the side came from.
                flux = next(fluxes)
            values[:, j] = flux["value"][:n]
            del flux
        initial = [scenario.beds.initial_belief.mean for scenario in batch]
        means = evolve_means(initial, values, obs_precisions, side.events["precision_before"])
        if replay is not None and n:
            # As for the totals, a replayed flux may leave the divergence
            # non-finite: its precision ratios, in the order kl_gaussian
            # divides, on the highest precision the run reaches, or its mean
            # term on the farthest mean (nan if a mean is) plus the target's reach.
            target = batch[0].problem.target
            highest, p = side.events["precision_after"].max().item(), 1.0 / target.target_variance
            if not (math.isfinite(highest / p) and math.isfinite(p / highest)):
                message = f"must keep the divergence of the highest precision finite, got {highest!r}"
                raise ValidationError([Violation("budget_exceeded", "observations", message)])
            farthest = np.max(np.abs(means), initial=abs(initial[0])).item()
            reach = farthest + abs(target.theta0) + abs(target.velocity) * batch[0].horizon
            if not math.isfinite(p * reach * reach):
                message = f"must keep the divergence of the farthest mean finite, got {farthest!r}"
                raise ValidationError([Violation("budget_exceeded", "observations", message)])
        yield from _lent_traces(batch, side, means)
        # Free this batch's blocks before the next batch allocates its own.
        del values, means
