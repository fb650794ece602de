"""Pure belief-state evolution.

A belief is two floats, a mean and a precision. Between observations the
precision decays exponentially at the dissipation rate while the mean stays
put; at an observation the belief absorbs the datum through the conjugate
Gaussian update. Crystallization is the variance dropping below the
threshold, after which the system reports its mean and halts.

``evolve`` runs that recurrence over a whole observation stream and
``dissipate`` applies the decay to a column of beliefs, with one rate
(``gamma``) for every row or a column of per-row rates; the engine calls
these two. The per-step functions ``propagate``, ``bayes_update`` and
``check_crystallization`` are the same rules one observation at a time:
they are the documented API for stepping a belief by hand and the
reference the column forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PRECISION_FLOOR, NegativeDt, NonPositiveObsPrecision, libm

__all__ = [
    "PRECISION_FLOOR",
    "CrystallizationOutcome",
    "NOT_CRYSTALLIZED",
    "evolve",
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


def evolve(
    mean: float,
    precision: float,
    times: list[float],
    values: list[float],
    obs_precisions: list[float],
    gamma: float,
    epsilon: float,
) -> tuple[list[float], list[float], list[float], bool]:
    """Apply a time-ordered observation stream to a belief held at time 0.

    Each row dissipates the precision to its arrival time (as
    ``propagate``), then absorbs the observation (as ``bayes_update``).
    Returns the columns ``precision_before`` (after dissipation, before the
    update), ``mean_after`` and ``precision_after``, one entry per applied
    row, and whether the run halted: it stops after the first row whose
    posterior variance is below ``epsilon`` (as ``is_crystallized``). Rows
    after that one are never read, so they raise nothing.
    """

    precision_before: list[float] = []
    mean_after: list[float] = []
    precision_after: list[float] = []
    t_prev = 0.0
    exp = math.exp
    for t, value, obs_precision in zip(times, values, obs_precisions):
        dt = t - t_prev
        t_prev = t
        if dt > 0:
            precision *= exp(-gamma * dt)
            if precision < PRECISION_FLOOR:
                precision = PRECISION_FLOOR
        elif dt < 0:
            raise NegativeDt(f"dt must be >= 0, got {dt!r}")
        if obs_precision <= 0:
            raise NonPositiveObsPrecision(f"obs_precision must be > 0, got {obs_precision!r}")
        precision_before.append(precision)
        posterior = precision + obs_precision
        mean = (precision * mean + obs_precision * value) / posterior
        precision = posterior
        mean_after.append(mean)
        precision_after.append(precision)
        if 1.0 / precision < epsilon:
            return precision_before, mean_after, precision_after, True
    return precision_before, mean_after, precision_after, False


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
