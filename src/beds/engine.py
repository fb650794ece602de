"""Event-driven simulation of a belief maintained against dissipation.

One run applies the observation stream in time order with
``dynamics.evolve``: closed-form dissipation to each arrival, then the
conjugate update, stopping at the first crystallized belief. The rest is
computed on the resulting columns: each observation's energy charge at its
pre-update precision, the ledger's running totals, the crystallization
outcome, and fixed-step samples interpolated from the last event by the
same closed form, so sampling density never perturbs the trajectory. A
crystallized run halts: nothing is recorded afterwards.

Sweeps run the Cartesian product of parameter overrides and replicate
seeds, one summary row per cell per replicate.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .analysis import kl_gaussian
from .core import (
    NonMonotonicFlux,
    Scenario,
    UnknownParameterPath,
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
    evolve,
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
    precision floor was hit at least once.
    """

    samples: np.ndarray
    events: np.ndarray
    outcome: CrystallizationOutcome
    ledger: EnergyLedger
    summary: Summary
    power_window: float
    clamped: bool = False


def run(scenario: Scenario, observations: np.ndarray | None = None) -> RunTrace:
    """Simulate one scenario deterministically.

    Observation costs are priced at the pre-update precision, after
    dissipation to the arrival instant. Passing ``observations`` replays an
    explicit flux instead of generating one from the scenario's flux spec: a
    1-D structured array with the float fields of ``fluxgen.FLUX_FIELDS`` in
    non-decreasing time order, as returned by ``generate_flux`` or
    ``flux_from_csv``.
    """

    validate_scenario(scenario)
    power_window = scenario.horizon / 10.0

    target = scenario.problem.target
    if observations is None:
        flux = generate_flux(scenario.flux_spec, target, scenario.horizon, scenario.seed)
    else:
        flux = _checked_flux(observations)

    epsilon = scenario.beds.epsilon
    initial = scenario.beds.initial_belief
    times, values, obs_precisions = (flux[name].tolist() for name in FLUX_FIELDS)
    precision_before, mean_after, precision_after, halted = evolve(
        initial.mean, initial.precision, times, values, obs_precisions, scenario.beds.gamma, epsilon
    )
    n = len(precision_after)
    outcome = NOT_CRYSTALLIZED
    if halted:
        t = times[n - 1]
        outcome = check_crystallization(
            mean_after[-1], precision_after[-1], t, epsilon, target_mean_at(target, t), scenario.problem.delta
        )
    events = np.empty(n, dtype=_EVENT_DTYPE)
    events["precision_before"] = precision_before
    events["mean_after"] = mean_after
    events["precision_after"] = precision_after
    energies, infos = observation_costs(scenario.energy_model, precision_before, obs_precisions[:n])
    # The arrays hold every column now: free the per-event lists first.
    del times, values, obs_precisions, precision_before, mean_after, precision_after
    ledger = EnergyLedger.from_columns(flux["time"][:n], energies, infos, scenario.energy_model.kBT)

    samples = _assemble_samples(scenario, events, ledger, outcome.time, power_window)
    summary = _summarize(samples, scenario.problem.t0, ledger)
    clamped = bool(
        initial.precision <= PRECISION_FLOOR
        or np.any(events["precision_before"] <= PRECISION_FLOOR)
        or np.any(samples["precision"] <= PRECISION_FLOOR)
    )
    return RunTrace(
        samples=samples,
        events=events,
        outcome=outcome,
        ledger=ledger,
        summary=summary,
        power_window=power_window,
        clamped=clamped,
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


def _assemble_samples(
    scenario: Scenario,
    events: np.ndarray,
    ledger: EnergyLedger,
    halted_at: float | None,
    power_window: float,
) -> np.ndarray:
    # Samples at multiples of sample_dt run up to the horizon, or stop strictly
    # before the halting observation. Each is the last event's belief at or
    # before it (row 0: the initial belief at time 0), dissipated to the sample
    # instant, so an observation at a sample instant is applied first and
    # sampling never advances the state.
    horizon, sample_dt = scenario.horizon, scenario.sample_dt
    t = np.arange(int(math.floor(horizon / sample_dt * (1.0 + 1e-12))) + 1) * sample_dt
    t = t[t < halted_at] if halted_at is not None else t[t <= horizon]
    last = np.searchsorted(ledger.times, t, side="right")
    initial = scenario.beds.initial_belief
    state_t = np.concatenate(([0.0], ledger.times))[last]
    mean = np.concatenate(([initial.mean], events["mean_after"]))[last]
    state_precision = np.concatenate(([initial.precision], events["precision_after"]))[last]
    precision = dissipate(state_precision, t - state_t, scenario.beds.gamma)

    samples = np.zeros(len(t), dtype=_SAMPLE_DTYPE)
    samples["t"] = t
    samples["mean"] = mean
    samples["precision"] = precision
    samples["variance"] = 1.0 / precision

    target = scenario.problem.target
    samples["kl_to_target"] = kl_gaussian(
        mean, precision, target_mean_at(target, t), 1.0 / target.target_variance
    )

    lo = np.searchsorted(ledger.times, t - power_window, side="right")
    padded = np.concatenate(([0.0], ledger.cumulative))
    samples["cumulative_energy"] = padded[last]
    samples["windowed_power"] = (padded[last] - padded[lo]) / power_window
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
    base.seed + i. Row order is grid-major, replicate-minor. Every cell's
    scenario is built and validated before the first run, and a sweep whose
    runs expect more than MAX_SWEEP_COUNT observations and samples in all
    is rejected.
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
    table = SweepTable(params=paths)
    for combo, cell in zip(combos, cells):
        for replicate in range(replicates):
            scenario = dataclasses.replace(cell, seed=(base.seed + replicate) % 2**64)
            trace = run(scenario)
            row = dict(zip(paths, combo))
            row["replicate"] = replicate
            row["seed"] = scenario.seed
            row.update(asdict(trace.summary))
            table.rows.append(row)
    return table
