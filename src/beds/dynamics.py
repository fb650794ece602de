"""Pure belief-state evolution.

A belief is two floats, a mean and a precision. Between observations the
precision decays exponentially at the dissipation rate while the mean stays
put; at an observation the belief absorbs the datum through the conjugate
Gaussian update. Crystallization is the variance dropping below the
threshold, after which the system reports its mean and halts.

``evolve_precision`` runs the precision recurrence over a whole
observation stream, ``evolve_mean`` the mean recurrence along the
precision path it returns, ``evolve_means`` that recurrence for many
streams on one path at once, and ``dissipate`` applies the decay to a
column of beliefs, with one rate (``gamma``) for every row or a column of
per-row rates; the engine calls these four. The precision path never reads
an observed value, so it is computed apart: ``evolve_precision`` makes each
``core.blocks`` block of rows one list comprehension between NumPy checks,
and the one-stream path of ``evolve_means`` runs its scalar loop a block at
a time, so a long run builds no per-event list. The per-step functions
``propagate``, ``bayes_update`` and ``check_crystallization`` are the same
rules one observation at a time: they are the documented API for stepping
a belief by hand and the reference the column forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PRECISION_FLOOR, NegativeDt, NonPositiveObsPrecision, blocks, libm

__all__ = [
    "PRECISION_FLOOR",
    "CrystallizationOutcome",
    "NOT_CRYSTALLIZED",
    "evolve_precision",
    "evolve_mean",
    "evolve_means",
    "dissipate",
    "propagate",
    "bayes_update",
    "is_crystallized",
    "check_crystallization",
]

@dataclass(frozen=True)
class CrystallizationOutcome:
    """Result of a crystallization check; detail fields are None unless it fired."""

    crystallized: bool
    time: float | None = None
    output_mean: float | None = None
    accurate: bool | None = None


NOT_CRYSTALLIZED = CrystallizationOutcome(crystallized=False)


def propagate(precision: float, dt: float, gamma: float) -> float:
    """Precision after ``dt`` time units of pure dissipation; the mean is unchanged.

    Precision is multiplied by exp(-gamma * dt), clamped below at
    PRECISION_FLOOR. dt = 0 returns the input unchanged.
    """

    if dt < 0:
        raise NegativeDt(f"dt must be >= 0, got {dt!r}")
    if dt == 0:
        return precision
    return max(precision * math.exp(-gamma * dt), PRECISION_FLOOR)


def bayes_update(
    mean: float, precision: float, value: float, obs_precision: float
) -> tuple[float, float]:
    """Conjugate update of a Gaussian belief by a Gaussian-likelihood observation.

    Returns the posterior ``(mean, precision)``. Exact closed form:
    precisions add, and the new mean is the precision-weighted average of
    the prior mean and the observed value.
    """

    if obs_precision <= 0:
        raise NonPositiveObsPrecision(f"obs_precision must be > 0, got {obs_precision!r}")
    posterior = precision + obs_precision
    return (precision * mean + obs_precision * value) / posterior, posterior


def evolve_precision(
    precision: float,
    times: np.ndarray,
    obs_precisions: np.ndarray,
    gamma: float,
    epsilon: float,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The precision path of a time-ordered observation stream applied to a belief held at time 0.

    Each row dissipates the precision to its arrival time (as ``propagate``),
    then adds the observation's precision (as ``bayes_update``). Returns the
    columns ``precision_before`` (after dissipation, before the update) and
    ``precision_after``, one entry per applied row, and whether the run halted
    after the first row whose posterior variance is below ``epsilon`` (as
    ``is_crystallized``). Each ``core.blocks`` block is one list comprehension,
    ``math.exp`` inline, over its rows before the first that would raise
    (``dt < 0`` or ``obs_precision <= 0``, found by NumPy). So every row
    before the first raising row is computed, up to the end of the halting
    row's block; rows past the halt are dropped and raise nothing. Streams
    with the same times and precisions share the path.
    """

    precision_before, precision_after = np.empty(len(times)), np.empty(len(times))
    before, obs, t_prev = precision, 0.0, 0.0  # row 0 dissipates precision + 0.0 from time 0
    exp, floor, rate = math.exp, PRECISION_FLOOR, -gamma
    for rows in blocks(len(times)):
        t, o = times[rows], obs_precisions[rows]
        dt = t - np.concatenate(([t_prev], t[:-1]))
        raising = np.flatnonzero((dt < 0) | (o <= 0))
        k = raising[0] if len(raising) else len(t)
        previous = [obs, *o[:k].tolist()]
        # A row at dt == 0 keeps the previous posterior unclamped, as propagate does.
        steps = zip(dt[:k].tolist(), previous)
        block = [before := floor if (q := (before + tau) * exp(rate * d)) < floor and d else q for d, tau in steps]
        applied = slice(rows.start, rows.start + k)
        precision_before[applied] = block
        after = np.add(precision_before[applied], o[:k], out=precision_after[applied])
        if len(halts := np.flatnonzero(1.0 / after < epsilon)):
            n = rows.start + halts[0] + 1
            return precision_before[:n], precision_after[:n], True
        if len(raising):
            if dt[k] < 0:
                raise NegativeDt(f"dt must be >= 0, got {dt[k].item()!r}")
            raise NonPositiveObsPrecision(f"obs_precision must be > 0, got {o[k].item()!r}")
        obs, t_prev = previous[-1], t[-1]
    return precision_before, precision_after, False


def evolve_mean(
    mean: float,
    values: list[float],
    obs_precisions: list[float],
    precision_before: list[float],
) -> list[float]:
    """The means after each update of a precision path from ``evolve_precision``.

    Row ``i`` absorbs ``values[i]`` into the previous mean (``mean`` for
    row 0) as ``bayes_update`` does, from the path's precision before the
    update; the precision after it is formed as ``evolve_precision`` forms
    it. Returns one mean per entry of ``precision_before``; later values
    are never read.
    """

    rows = zip(precision_before, values, obs_precisions)
    return [mean := (before * mean + tau_d * value) / (before + tau_d) for before, value, tau_d in rows]


def evolve_means(
    means: list[float], values: np.ndarray, obs_precisions: np.ndarray, precision_before: np.ndarray
) -> np.ndarray:
    """``evolve_mean`` for many streams on one precision path, as the columns of one loop.

    ``values`` is an (events x streams) float64 array; column ``j`` starts
    from ``means[j]``. Each step does ``evolve_mean``'s IEEE operations, in
    its order, on a row of streams, so column ``j`` of the result is ``==``
    ``evolve_mean(means[j], values[:, j], obs_precisions, precision_before)``.
    The means overwrite the first ``len(precision_before)`` rows of
    ``values``, which are returned. One stream runs ``evolve_mean`` itself,
    which is faster than a loop over rows of width 1.
    """

    n = len(precision_before)
    out = values[:n]
    if out.shape[1] == 1:
        # Over blocks of rows, so that the per-event lists add little to a
        # long run's peak memory; each block starts from the last mean.
        column, mean = out[:, 0], float(means[0])
        for rows in blocks(n):
            block = evolve_mean(mean, *(c[rows].tolist() for c in (column, obs_precisions, precision_before)))
            column[rows] = block
            mean = block[-1]
        return out
    tau_d = np.asarray(obs_precisions[:n], dtype=np.float64)
    before = np.asarray(precision_before, dtype=np.float64)
    out *= tau_d[:, None]
    mean, scaled = np.array(means, dtype=np.float64), np.empty(len(means))
    # (before * mean + tau_d * value) / after, each step in place on one row;
    # an overflow gives inf without a warning, as in the scalar loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for row, b, after in zip(out, before.tolist(), (before + tau_d).tolist()):
            np.multiply(b, mean, scaled)
            np.add(scaled, row, row)
            np.divide(row, after, row)
            mean = row
    return out


def dissipate(precisions: np.ndarray, dts: np.ndarray, gamma: float | np.ndarray) -> np.ndarray:
    """Each precision after its own ``dt >= 0`` of pure dissipation, as ``propagate``.

    ``gamma`` is one rate for every row or a column of per-row rates. A
    negative ``dt`` raises NegativeDt naming the first one. The exponential
    is ``core.libm``'s scalar ``math.exp``, so every row is bit-identical to
    ``propagate``.
    """

    precisions = np.asarray(precisions, dtype=np.float64)
    dts = np.asarray(dts, dtype=np.float64)
    negative = np.flatnonzero(dts < 0)
    if len(negative):
        raise NegativeDt(f"dt must be >= 0, got {dts[negative[0]].item()!r}")
    with np.errstate(over="ignore"):  # an infinite exponent decays to the floor, as in propagate
        decay = libm(math.exp, -gamma * dts)
    return np.where(dts != 0, np.maximum(precisions * decay, PRECISION_FLOOR), precisions)


def is_crystallized(precision: float, epsilon: float) -> bool:
    """True iff the belief variance is strictly below the threshold."""

    return 1.0 / precision < epsilon


def check_crystallization(
    mean: float,
    precision: float,
    t: float,
    epsilon: float,
    target_mean_at_t: float,
    delta: float,
) -> CrystallizationOutcome:
    """Evaluate the halting condition and, when it fires, the accuracy of the output.

    ``accurate`` records whether the reported mean lies within ``delta`` of
    the target mean at the crystallization instant.
    """

    if not is_crystallized(precision, epsilon):
        return NOT_CRYSTALLIZED
    return CrystallizationOutcome(
        crystallized=True,
        time=t,
        output_mean=mean,
        accurate=abs(mean - target_mean_at_t) < delta,
    )
