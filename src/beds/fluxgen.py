"""Seed-reproducible generation of observation fluxes.

All randomness is drawn from a single seeded uniform stream (PCG64), with
exponential inter-arrivals obtained by inverse transform, -ln(u)/rate, and
Gaussian noise by the Box-Muller map sqrt(-2 ln u1) * cos(2 pi u2). Each
observation consumes a fixed number of uniforms (one per Poisson arrival,
plus two when values are noisy), so identical (spec, target, horizon, seed)
always yields an identical flux. Uniforms are drawn in blocks and used in
stream order: the Poisson inter-arrivals up to and including the first
one past the horizon, then the noise pairs.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    EmptySpec,
    FluxSpec,
    NonPositiveHorizon,
    PeriodicArrival,
    PoissonArrival,
    ScheduleArrival,
    TargetSpec,
    libm,
)
from .io import csv_text

__all__ = ["FLUX_FIELDS", "generate_flux", "target_mean_at", "flux_to_csv", "flux_from_csv"]

FLUX_FIELDS = ("time", "value", "obs_precision")
_FLUX_DTYPE = np.dtype([(name, np.float64) for name in FLUX_FIELDS])
_TWO_PI = 2.0 * math.pi


def target_mean_at(target: TargetSpec, t: float | np.ndarray) -> float | np.ndarray:
    """Target mean at time t (a float or an array): theta0 + velocity * t, with velocity 0 when static."""

    return target.theta0 + target.velocity * t


def _block_size(expected: float) -> int:
    """Uniforms to draw at once for about ``expected`` Poisson arrivals.

    Eight standard deviations above the mean, so a refill is rare.
    """

    return int(expected + 8.0 * math.sqrt(expected)) + 16


def _poisson_times(rate: float, horizon: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Poisson arrival times up to the horizon, and the uniforms drawn after them.

    Arrival ``k`` is the running sum of the inter-arrival times
    ``-ln(1 - u_j) / rate``. The uniforms are drawn in blocks, refilled when
    a block ends before the horizon. The second array holds the uniforms of
    the last block that follow the first arrival past the horizon, unused.
    """

    blocks = []
    t = 0.0
    while True:
        u = rng.random(_block_size(rate * (horizon - t)))
        # The running sum starts from t and adds in order (np.cumsum).
        logs = libm(math.log, 1.0 - u)
        times = np.cumsum(np.concatenate(([t], -logs / rate)))[1:]
        past = int(np.searchsorted(times, horizon, side="right"))
        if past < len(times):
            blocks.append(times[:past])
            return np.concatenate(blocks), u[past + 1 :]
        blocks.append(times)
        t = times[-1].item()


def _arrival_times(spec: FluxSpec, horizon: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times up to the horizon, and any uniforms drawn for them but not used."""

    arrival = spec.arrival
    unused = np.empty(0)
    if isinstance(arrival, PoissonArrival):
        return _poisson_times(arrival.rate, horizon, rng)
    if isinstance(arrival, PeriodicArrival):
        count = int(math.floor(horizon / arrival.period * (1.0 + 1e-12)))
        return np.arange(1, count + 1) * arrival.period, unused
    if isinstance(arrival, ScheduleArrival):
        return np.array([t for t in arrival.times if 0.0 <= t <= horizon], dtype=float), unused
    raise EmptySpec(f"flux spec has no usable arrival: {arrival!r}")


def generate_flux(spec: FluxSpec, target: TargetSpec, horizon: float, seed: int) -> np.ndarray:
    """Generate the time-ordered observation stream for one run.

    Values are the target mean at the arrival time, plus (for noisy specs)
    Gaussian noise of variance 1/obs_precision, matching the likelihood
    precision the belief update assumes. The flux is one structured array
    with the float fields of ``FLUX_FIELDS``, one row per observation.
    """

    if horizon <= 0:
        raise NonPositiveHorizon(f"horizon must be > 0, got {horizon!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    times, unused = _arrival_times(spec, horizon, rng)
    flux = np.empty(len(times), dtype=_FLUX_DTYPE)
    flux["time"] = times
    flux["value"] = target_mean_at(target, flux["time"])
    flux["obs_precision"] = spec.obs_precision
    if spec.noise == "noisy":
        # Box-Muller, two uniforms per value: the stream's next uniforms after
        # the arrivals, in order.
        needed = 2 * len(times)
        u = np.concatenate((unused[:needed], rng.random(max(needed - len(unused), 0))))
        logs = libm(math.log, 1.0 - u[0::2])
        coss = libm(math.cos, _TWO_PI * u[1::2])
        noise_scale = 1.0 / math.sqrt(spec.obs_precision)
        flux["value"] += noise_scale * (np.sqrt(-2.0 * logs) * coss)
    return flux


def flux_to_csv(flux: np.ndarray) -> str:
    """Render a flux as CSV (time, value, obs_precision) for replay elsewhere."""

    return csv_text(FLUX_FIELDS, [flux[name] for name in FLUX_FIELDS])


def flux_from_csv(text: str) -> np.ndarray:
    """Parse a flux CSV produced by :func:`flux_to_csv` (or any external trace).

    A row that is not three finite numbers raises ValueError naming its line.
    """

    lines = [(number, line) for number, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines or lines[0][1].replace(" ", "") != ",".join(FLUX_FIELDS):
        raise ValueError(f"flux CSV must start with header {','.join(FLUX_FIELDS)!r}")
    rows = []
    for number, line in lines[1:]:
        try:
            row = tuple(map(float, line.split(",")))
            if len(row) != len(FLUX_FIELDS) or not all(map(math.isfinite, row)):
                raise ValueError(f"expected {len(FLUX_FIELDS)} finite numbers, got {line!r}")
        except ValueError as exc:
            raise ValueError(f"flux CSV line {number}: {exc}") from exc
        rows.append(row)
    return np.array(rows, dtype=_FLUX_DTYPE)
