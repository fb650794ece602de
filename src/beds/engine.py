"""Event-driven simulation of a belief maintained against dissipation.

A run has two sides. The precision side never reads an observed value:
``dynamics.evolve_precision`` applies closed-form dissipation to each
arrival and adds the observation's precision, stopping at the first
crystallized belief, and the rest is computed on the resulting columns:
each observation's energy charge at its pre-update precision, the ledger's
running totals, and fixed-step precision and power samples interpolated
from the last event by the same closed form, so sampling density never
perturbs the trajectory. The mean side runs ``dynamics.evolve_mean``
along that precision path and derives the sampled means, their divergence
from the target and the crystallization outcome. A crystallized run halts:
nothing is recorded afterwards. A generated flux is dropped before the
samples are made, once the ledger holds its times and the mean side its
values, and one function, ``_precision_samples``, fills every sample column
a block of rows at a time, so a long run's memory peaks at about the trace
it returns.

One generator, ``_traces``, builds every trace, for ``run`` as for a sweep's
rows. With periodic or scheduled arrivals nothing is drawn for the times,
so a run's precision side is a function of a few scenario values, its key,
and a run's noise is the first standard normals of its seed's stream. A
key's side is computed once, from its first row's flux. A key of one row
(a plain run, a replay, a Poisson row) evolves its means first and fills
its samples' means and divergence in the same blocks as the rest. A side
that rows share is lent read-only; each batch of its rows evolves its means
as the columns of one loop (``dynamics.evolve_means``) and takes only their
divergence maxima after the burn-in, a few rows at a time. Sweeps run the
Cartesian product of parameter overrides and replicate seeds, each row one
``run``, key by key whatever the grid's order, and emit the rows grid-major.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, reduce

import numpy as np

from .analysis import after_burn_in, kl_gaussian
from .core import (
    MAX_EXPECTED_COUNT,
    NegativeDt,
    NonMonotonicFlux,
    PoissonArrival,
    Scenario,
    UnknownParameterPath,
    ValidationError,
    Violation,
    blocks,
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
# Most samples in one block of a batch's divergence, over all its rows: the
# columns of a wide or long key's rows are computed a few rows at a time.
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

    The events' mean_after column and the samples' mean and kl_to_target
    columns belong to the mean side: 0 on a shared side, filled with the
    row's means on a side of its own. Which event a sample follows is not
    stored: ``np.searchsorted`` of its time in ``ledger.times`` finds it.
    ``halted_at`` is the crystallization time, None when the run did not
    halt. ``summary`` holds the ``Summary`` fields of this side.
    """

    events: np.ndarray
    ledger: EnergyLedger
    samples: np.ndarray
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
    When rows of a sweep share the side, which is then read-only, the
    samples are rebuilt by ``_precision_samples`` with the row's means, and
    the events copied with them, the first time each is read. The ledger's
    columns are read-only, since the runs of a sweep may share them.
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
            # A side of its own holds its means, and its samples their divergence.
            self.samples, self.events = side.samples, side.events

    @cached_property
    def samples(self) -> np.ndarray:
        side = self._side
        return _precision_samples(self._scenario, side.events, side.ledger, side.halted_at, self._mean_after)

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
    ``flux_from_csv``. A replay runs with numpy's floating-point errors
    ignored, and raises ``ValidationError``, one ``budget_exceeded``
    violation on ``observations``, if its run records a non-finite sample,
    event, total energy or total information, or an infinite summary mean
    (a nan mean only says that no sample falls after t0).

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
    if observations is None:
        [trace] = _traces([scenario], {})
        return trace
    with np.errstate(all="ignore"):
        [trace] = _traces([scenario], {}, _checked_flux(observations))
    recorded = [(name.replace("kl_to_target", "divergence"), trace.samples[name]) for name in SAMPLE_FIELDS]
    recorded += [(f"event {name}", trace.events[name]) for name in _EVENT_DTYPE.names]
    recorded += [("total energy", [trace.summary.total_energy]), ("total information", [trace.summary.total_info])]
    # A nan mean says only that no sample falls after t0.
    means = [(name, value) for name, value in vars(trace.summary).items() if name.startswith("mean_")]
    recorded += [(name.replace("_", " "), [value]) for name, value in means if not math.isnan(value)]
    for quantity, values in recorded:
        bad = np.asarray(values)[~np.isfinite(values)]
        if bad.size:
            message = f"must keep the run's {quantity} finite, got {bad[0].item()!r}"
            raise ValidationError([Violation("budget_exceeded", "observations", message)])
    return trace


def _side_key(scenario: Scenario) -> tuple:
    """What a run's precision side is a function of, unless its arrivals are Poisson.

    ``key[2:]`` is every scenario value ``_precision_events`` and
    ``_precision_side`` read besides the flux, when no means are given.
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


def _precision_events(flux: np.ndarray, scenario: Scenario) -> tuple[np.ndarray, EnergyLedger, float | None]:
    """Apply ``flux``'s times and obs_precisions: the events, the ledger and the crystallization time.

    The events leave their mean_after column 0. The ledger's columns are
    read-only copies, so nothing returned refers to the flux. The time is
    None when the run did not halt.
    """

    times, beds, energy_model = flux["time"], scenario.beds, scenario.energy_model
    precision = beds.initial_belief.precision
    before, after, halted = evolve_precision(precision, times, flux["obs_precision"], beds.gamma, beds.epsilon)
    n = len(after)
    events = np.zeros(n, dtype=_EVENT_DTYPE)
    events["precision_before"], events["precision_after"] = before, after
    del before, after
    energies, infos = observation_costs(energy_model, events["precision_before"], flux["obs_precision"][:n])
    ledger = EnergyLedger.from_columns(times[:n], energies, infos, energy_model.kBT)
    for column in (ledger.times, ledger.energies, ledger.infos, ledger.cumulative):
        column.flags.writeable = False
    return events, ledger, times[n - 1].item() if halted else None


def _precision_side(
    scenario: Scenario, events: np.ndarray, ledger: EnergyLedger, halted_at: float | None, means=None
) -> _PrecisionSide:
    """The side of ``_precision_events``' results: its samples and its summary fields.

    ``means`` are a side of its own's means after each event, which fill its
    samples' mean and kl_to_target columns (``_precision_samples``); no
    other observed value enters the result.
    """

    samples, t0 = _precision_samples(scenario, events, ledger, halted_at, means), scenario.problem.t0
    clamped = bool(
        scenario.beds.initial_belief.precision <= PRECISION_FLOOR
        or np.any(events["precision_before"] <= PRECISION_FLOOR)
        or np.any(samples["precision"] <= PRECISION_FLOOR)
    )
    summary = {
        "mean_precision_after_t0": after_burn_in(samples, t0, "precision", np.mean),
        "mean_windowed_power_after_t0": after_burn_in(samples, t0, "windowed_power", np.mean),
        "observation_count": len(events),
        "total_energy": ledger.cumulative_energy,
        "total_info": ledger.cumulative_info,
    }
    return _PrecisionSide(events, ledger, samples, halted_at, clamped, scenario.horizon / 10.0, summary)


def _after(column: np.ndarray, last: np.ndarray, first) -> np.ndarray:
    """``column[last - 1]``, each sample's row after its last event; ``first`` before the first event.

    ``last`` is each sample's count of events at or before it, ascending,
    so the samples before the first event are a prefix.
    """

    out = column[last - 1] if len(column) else np.empty(last.shape + column.shape[1:])
    out[: last.searchsorted(0, side="right")] = first
    return out


def _divergence(scenarios: list[Scenario], side: _PrecisionSide, means: np.ndarray) -> list[float]:
    """Each row's divergence maximum after the burn-in, row ``j``'s means after each event column ``j`` of ``means``.

    The rows share the side's key, t0 included: ``_traces`` passes a few of
    a shared side's rows at a time. Only the samples after t0 are read, in
    2-D blocks of at most _TRACE_BLOCK samples.
    """

    tail = np.searchsorted(side.samples["t"], scenarios[0].problem.t0, side="right")
    t, precision = side.samples["t"][tail:], side.samples["precision"][tail:]
    targets = [scenario.problem.target for scenario in scenarios]
    initial = [scenario.beds.initial_belief.mean for scenario in scenarios]
    # target_mean_at, one target per row. A precision that every row
    # shares stays a float, so kl_gaussian computes its terms in it once.
    theta0, velocity = np.array([[target.theta0, target.velocity] for target in targets]).T[..., None]
    precisions_p = [1.0 / target.target_variance for target in targets]
    precision_p = precisions_p[0] if len(set(precisions_p)) == 1 else np.array(precisions_p)[:, None]
    maxima = []
    for a in range(0, len(t), _TRACE_BLOCK):
        block = slice(a, a + _TRACE_BLOCK)
        mean = _after(means, np.searchsorted(side.ledger.times, t[block], side="right"), initial).T
        maxima.append(kl_gaussian(mean, precision[block], theta0 + velocity * t[block], precision_p).max(axis=1))
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
    scenario: Scenario, events: np.ndarray, ledger: EnergyLedger, halted_at: float | None, means=None
) -> np.ndarray:
    """A run's samples at multiples of sample_dt, from its events and ledger, and its means after each event.

    They run up to the horizon, or stop strictly before the halting
    observation. Each is the last event's belief at or before it (row 0:
    the initial belief at time 0), dissipated to the sample instant, so an
    observation at a sample instant is applied first and sampling never
    advances the state. Without ``means``, the mean and kl_to_target columns
    are left 0. Only the samples are allocated whole: their count is found
    by bisection on the sample times, and the columns are filled one
    ``core.BLOCK`` of rows at a time, each block's last events searched once.
    """

    beds, target, horizon, sample_dt = scenario.beds, scenario.problem.target, scenario.horizon, scenario.sample_dt
    initial, power_window, precision_p = beds.initial_belief, horizon / 10.0, 1.0 / target.target_variance
    count = int(math.floor(horizon / sample_dt * (1.0 + 1e-12))) + 1
    search, stop = (bisect_right, horizon) if halted_at is None else (bisect_left, halted_at)
    samples = np.zeros(search(range(count), stop, key=lambda i: i * sample_dt), dtype=_SAMPLE_DTYPE)
    for rows in blocks(len(samples)):
        block = samples[rows]
        block["t"] = t = np.arange(rows.start, rows.start + len(block)) * sample_dt
        last = np.searchsorted(ledger.times, t, side="right")
        dts = t - _after(ledger.times, last, 0.0)
        block["precision"] = dissipate(_after(events["precision_after"], last, initial.precision), dts, beds.gamma)
        block["variance"] = 1.0 / block["precision"]
        if means is not None:
            block["mean"] = mean = _after(means, last, initial.mean)
            block["kl_to_target"] = kl_gaussian(mean, block["precision"], target_mean_at(target, t), precision_p)
        block["cumulative_energy"] = _after(ledger.cumulative, last, 0.0)
        window = _after(ledger.cumulative, np.searchsorted(ledger.times, t - power_window, side="right"), 0.0)
        block["windowed_power"] = (block["cumulative_energy"] - window) / power_window
    return samples


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
        raw = dict(base_dict)
        for path, value in zip(paths, combo):
            node = raw  # copy the dicts on the path, so base_dict stays as it is
            for key in path.split(".")[:-1]:
                if isinstance(node.get(key), dict):
                    node[key] = node = dict(node[key])
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

    A Poisson row, or a run of the flux ``replay``, is a key of one row: its
    means evolve in its events' mean_after column before its samples are
    made, which fill their mean and kl_to_target with the rest. Otherwise
    the side comes from the first row's flux and is read-only, and each
    batch's means evolve as the columns of one (events x rows) loop, on
    ``normals`` (by seed) where they hold enough. A batch holds at most
    about MAX_EXPECTED_COUNT means, by the first flux's length, and each
    row's flux is dropped once its values are in the batch (row 0's before
    the side's samples are made), whose divergence maxima are taken about
    _TRACE_BLOCK samples' worth of rows at a time.
    """

    fluxes = (
        generate_flux(s.flux_spec, s.problem.target, s.horizon, s.seed, normals.get(s.seed)) for s in scenarios
    )
    flux = next(fluxes) if replay is None else replay
    events, ledger, halted_at = _precision_events(flux, scenarios[0])
    n = len(events)
    if len(scenarios) == 1:
        [scenario], means = scenarios, events["mean_after"]
        means[:] = flux["value"][:n]
        before = events["precision_before"]
        evolve_means([scenario.beds.initial_belief.mean], means[:, None], flux["obs_precision"], before)
        del flux
        side = _precision_side(scenario, events, ledger, halted_at, means)
        max_kl = after_burn_in(side.samples, scenario.problem.t0, "kl_to_target", np.max)
        yield RunTrace(side, scenario, means, max_kl)
        return
    width = max(1, int(MAX_EXPECTED_COUNT // max(len(flux), 1)))
    obs_precisions = flux["obs_precision"][:n].copy()
    # Row 0's values go into the first batch now, so that its flux is
    # dropped before the samples are made.
    values = np.empty((n, min(width, len(scenarios))))
    values[:, 0] = flux["value"][:n]
    del flux
    side = _precision_side(scenarios[0], events, ledger, halted_at)
    for column in (side.events, side.samples):
        column.flags.writeable = False
    step = max(1, _TRACE_BLOCK // max(1, len(side.samples)))
    for lo in range(0, len(scenarios), width):
        batch = scenarios[lo : lo + width]
        if lo:
            values = np.empty((n, len(batch)))
        for j in range(len(batch)):
            if lo + j:  # Row 0's values are in already.
                values[:, j] = next(fluxes)["value"][:n]
        initial = [scenario.beds.initial_belief.mean for scenario in batch]
        means = evolve_means(initial, values, obs_precisions, side.events["precision_before"])
        for a in range(0, len(batch), step):
            max_kl = _divergence(batch[a : a + step], side, means[:, a : a + step])
            for j, scenario in enumerate(batch[a : a + step]):
                yield RunTrace(side, scenario, means[:, a + j], max_kl[j])
        # Free this batch's blocks before the next batch allocates its own.
        del values, means
