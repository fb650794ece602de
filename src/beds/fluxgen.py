"""Seed-reproducible generation of observation fluxes.

All randomness is drawn from a single seeded uniform stream (PCG64), with
exponential inter-arrivals obtained by inverse transform, -ln(u)/rate, and
Gaussian noise by the Box-Muller map sqrt(-2 ln u1) * cos(2 pi u2). Each
observation consumes a fixed number of uniforms (one per Poisson arrival,
plus two when values are noisy), so identical (spec, target, horizon, seed)
always yields an identical flux. Uniforms are used in stream order: the
Poisson inter-arrivals up to and including the first one past the horizon,
then the noise pairs. A flux draws both at most ``core.BLOCK`` arrivals or
rows at a time, and adds each block's noise before the next block is
drawn, so a long flux holds little beyond its own rows.

With periodic or scheduled arrivals nothing is drawn for the times, so a
run's noise is the first Box-Muller normals of its seed's stream, whatever
the rest of the spec (``first_normals``). A caller that generates many such
fluxes at the same seeds (``engine.sweep``) may draw each seed's normals
once and pass them to every call; the stream is then built only for Poisson
arrivals or for a flux longer than the normals given.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from . import core
from .core import (
    EmptySpec,
    FluxSpec,
    NonPositiveHorizon,
    PeriodicArrival,
    PoissonArrival,
    ScheduleArrival,
    TargetSpec,
    blocks,
    libm,
)
from .io import csv_text

__all__ = [
    "FLUX_FIELDS",
    "first_normals",
    "fixed_count",
    "generate_flux",
    "target_mean_at",
    "flux_to_csv",
    "flux_from_csv",
]

FLUX_FIELDS = ("time", "value", "obs_precision")
_FLUX_DTYPE = np.dtype([(name, np.float64) for name in FLUX_FIELDS])
_TWO_PI = 2.0 * math.pi


def target_mean_at(target: TargetSpec, t: float | np.ndarray) -> float | np.ndarray:
    """Target mean at time t (a float or an array): theta0 + velocity * t, with velocity 0 when static."""

    return target.theta0 + target.velocity * t


def _block_size(expected: float) -> int:
    """Uniforms to draw at once for about ``expected`` Poisson arrivals.

    Eight standard deviations above the mean, so a short run draws once, but
    at most ``core.BLOCK``: a long run draws block after block.
    """

    return min(int(expected + 8.0 * math.sqrt(expected)) + 16, core.BLOCK)


def _poisson_times(rate: float, horizon: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Poisson arrival times up to the horizon, and the uniforms drawn after them.

    Arrival ``k`` is the running sum of the inter-arrival times
    ``-ln(1 - u_j) / rate``. The uniforms are drawn ``_block_size`` at a
    time, the sum carried from block to block, until an arrival passes the
    horizon. The second array holds the uniforms of the last block that
    follow that arrival, unused.
    """

    drawn = []
    t = 0.0
    while True:
        u = rng.random(_block_size(rate * (horizon - t)))
        # The running sum starts from t and adds in order (np.cumsum).
        logs = libm(math.log, 1.0 - u)
        times = np.cumsum(np.concatenate(([t], -logs / rate)))[1:]
        past = int(np.searchsorted(times, horizon, side="right"))
        if past < len(times):
            drawn.append(times[:past])
            return np.concatenate(drawn), u[past + 1 :]
        drawn.append(times)
        t = times[-1].item()


def fixed_count(arrival: object, horizon: float) -> int:
    """How many periodic or scheduled arrivals fall in [0, horizon]: the rows of their flux."""

    if isinstance(arrival, PeriodicArrival):
        return int(math.floor(horizon / arrival.period * (1.0 + 1e-12)))
    if isinstance(arrival, ScheduleArrival):
        return sum(0.0 <= t <= horizon for t in arrival.times)
    raise EmptySpec(f"flux spec has no usable arrival: {arrival!r}")


def _fixed_times(arrival: object, horizon: float) -> np.ndarray:
    """Periodic or scheduled arrival times up to the horizon; nothing is drawn for them."""

    if isinstance(arrival, ScheduleArrival):
        return np.array([t for t in arrival.times if 0.0 <= t <= horizon], dtype=float)
    return np.arange(1, fixed_count(arrival, horizon) + 1) * arrival.period


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals ``sqrt(-2 ln(1 - u1)) * cos(2 pi u2)``, one per pair of uniforms."""

    logs = libm(math.log, 1.0 - u[0::2])
    coss = libm(math.cos, _TWO_PI * u[1::2])
    return np.sqrt(-2.0 * logs) * coss


def _normal_blocks(rng: np.random.Generator, unused: np.ndarray, n: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Each block of ``n`` rows and its standard normals, from the uniforms ``unused`` first, then ``rng``'s."""

    for rows in blocks(n):
        needed = 2 * len(range(n)[rows])
        yield rows, _box_muller(np.concatenate((unused[:needed], rng.random(max(needed - len(unused), 0)))))
        unused = unused[needed:]


def first_normals(seed: int, count: int) -> np.ndarray:
    """The first ``count`` standard normals of ``seed``'s stream, two uniforms each, drawn a block at a time.

    They are a periodic or scheduled flux's own noise, and a prefix of them is the same as fewer drawn.
    """

    normals = np.empty(count)
    for rows, normal in _normal_blocks(np.random.Generator(np.random.PCG64(seed)), np.empty(0), count):
        normals[rows] = normal
    return normals


def generate_flux(
    spec: FluxSpec,
    target: TargetSpec,
    horizon: float,
    seed: int,
    normals: np.ndarray | None = None,
) -> np.ndarray:
    """Generate the time-ordered observation stream for one run.

    Values are the target mean at the arrival time, plus (for noisy specs)
    Gaussian noise of variance 1/obs_precision, matching the likelihood
    precision the belief update assumes. The flux is one structured array
    with the float fields of ``FLUX_FIELDS``, one row per observation.

    ``normals`` may hold ``first_normals(seed, count)`` for any count, drawn
    once for many calls. A noisy periodic or scheduled spec reads its noise
    from their first rows, and draws its own when they are too few; Poisson
    and exact specs ignore them. The flux is the same with or without them.
    """

    if horizon <= 0:
        raise NonPositiveHorizon(f"horizon must be > 0, got {horizon!r}")
    poisson = isinstance(spec.arrival, PoissonArrival)
    if poisson:
        rng = np.random.Generator(np.random.PCG64(seed))
        times, unused = _poisson_times(spec.arrival.rate, horizon, rng)
    else:
        times, unused = _fixed_times(spec.arrival, horizon), np.empty(0)
    n = len(times)
    flux = np.empty(n, dtype=_FLUX_DTYPE)
    flux["time"] = times
    del times
    flux["value"] = target_mean_at(target, flux["time"])
    flux["obs_precision"] = spec.obs_precision
    if spec.noise == "noisy":
        scale = 1.0 / math.sqrt(spec.obs_precision)
        if poisson or normals is None or len(normals) < n:
            # The noise follows the seed's Poisson arrival draws, if any.
            rng = rng if poisson else np.random.Generator(np.random.PCG64(seed))
            for rows, normal in _normal_blocks(rng, unused, n):
                flux["value"][rows] += scale * normal
        else:
            flux["value"] += scale * normals[:n]
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
