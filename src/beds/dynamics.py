"""Pure belief-state evolution.

A belief is two floats, a mean and a precision. Between observations the
precision decays exponentially at the dissipation rate while the mean stays
put; at an observation the belief absorbs the datum through the conjugate
Gaussian update. Crystallization is the variance dropping below the
threshold, after which the system reports its mean and halts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import NegativeDt, NonPositiveObsPrecision

__all__ = [
    "PRECISION_FLOOR",
    "CrystallizationOutcome",
    "NOT_CRYSTALLIZED",
    "propagate",
    "bayes_update",
    "is_crystallized",
    "check_crystallization",
]

# Lower clamp on precision: keeps the positivity invariant on pathological
# horizons without changing any realistic result. Engine traces flag runs
# that hit it.
PRECISION_FLOOR = 1e-300


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
