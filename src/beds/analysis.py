"""Closed-form steady-state predictions and run classification.

The analytic side: the observation rate needed to hold a precision against
dissipation, the exact and linear-regime minimum powers, the optimal
per-observation precision under a rate budget, and Gaussian KL divergence.
The empirical side: a classifier that grades a recorded run as attainable,
maintainable, and/or crystallizable against its problem spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import NonPositiveParameter, ProblemSpec
from .energy import info_gain, landauer_min_energy

if TYPE_CHECKING:  # pragma: no cover
    from .engine import RunTrace

__all__ = [
    "SteadyStatePrediction",
    "ClassEvidence",
    "ClassVerdict",
    "required_rate",
    "p_min_exact",
    "p_min_linear",
    "optimal_obs_precision",
    "steady_state_prediction",
    "kl_gaussian",
    "after_burn_in",
    "classify_run",
]


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0:
            raise NonPositiveParameter(f"{name} must be > 0, got {value!r}")


def required_rate(gamma: float, tau_star: float, tau_d: float) -> float:
    """Observation rate that balances dissipation at precision ``tau_star``.

    Precision flows out at gamma * tau_star and in at rate * tau_d, so the
    steady state needs rate = gamma * tau_star / tau_d.
    """

    _check_positive(gamma=gamma, tau_star=tau_star, tau_d=tau_d)
    return gamma * tau_star / tau_d


def p_min_exact(gamma: float, tau_star: float, tau_d: float, kBT: float = 1.0) -> float:
    """Minimum power to maintain ``tau_star``: required rate times the per-observation minimum energy."""

    _check_positive(gamma=gamma, tau_star=tau_star, tau_d=tau_d, kBT=kBT)
    return (gamma * tau_star / tau_d) * 0.5 * kBT * math.log1p(tau_d / tau_star)


def p_min_linear(gamma: float, kBT: float = 1.0) -> float:
    """Small-observation limit of the minimum power: gamma * kBT / 2, independent of precision."""

    return gamma * kBT / 2.0


def optimal_obs_precision(gamma: float, tau_star: float, lambda_max: float) -> float:
    """Cheapest per-observation precision that still maintains ``tau_star`` at rate ``lambda_max``.

    Per-observation energy grows with observation precision, so under a rate
    budget the optimum is the smallest precision that keeps the balance:
    gamma * tau_star / lambda_max. Round-trips exactly with
    :func:`required_rate`.
    """

    _check_positive(gamma=gamma, tau_star=tau_star, lambda_max=lambda_max)
    return gamma * tau_star / lambda_max


@dataclass(frozen=True)
class SteadyStatePrediction:
    """Bundle of the closed-form maintenance predictions for one parameter point."""

    lambda_required: float
    p_min_exact: float
    p_min_linear: float
    e_obs_min: float


def steady_state_prediction(
    gamma: float, tau_star: float, tau_d: float, kBT: float = 1.0
) -> SteadyStatePrediction:
    return SteadyStatePrediction(
        lambda_required=required_rate(gamma, tau_star, tau_d),
        p_min_exact=p_min_exact(gamma, tau_star, tau_d, kBT),
        p_min_linear=p_min_linear(gamma, kBT),
        e_obs_min=landauer_min_energy(info_gain(tau_star, tau_d), kBT),
    )


def kl_gaussian(
    mean_q: float | np.ndarray,
    precision_q: float | np.ndarray,
    mean_p: float | np.ndarray,
    precision_p: float | np.ndarray,
) -> float | np.ndarray:
    """KL divergence KL(q || p) between scalar Gaussians given as (mean, precision), in nats.

    Each argument is a float or an array, and the result follows NumPy
    broadcasting. Non-negative, and zero exactly when the two coincide.
    """

    mean_gap = mean_q - mean_p
    return 0.5 * (
        np.log(precision_q / precision_p)
        + precision_p / precision_q
        + precision_p * mean_gap * mean_gap
        - 1.0
    )


def after_burn_in(samples: np.ndarray, t0: float, name: str, reduce) -> float:
    """``reduce`` of the ``name`` column over the samples after the burn-in, t > t0; nan if none.

    Sample times ascend, so these samples are a tail.
    """

    tail = samples[name][np.searchsorted(samples["t"], t0, side="right") :]
    return float(reduce(tail)) if tail.size else math.nan


@dataclass(frozen=True)
class ClassEvidence:
    """Measured quantities behind each verdict flag."""

    final_kl: float
    max_kl_after_t0: float
    max_windowed_power_after_t0: float
    final_windowed_power: float
    crystallized: bool
    crystallization_time: float | None
    crystallization_accurate: bool | None


@dataclass(frozen=True)
class ClassVerdict:
    """Finite-horizon problem-class verdict for one run."""

    attainable: bool
    maintainable: bool
    crystallizable: bool
    evidence: ClassEvidence


def classify_run(trace: "RunTrace", problem: ProblemSpec) -> ClassVerdict:
    """Grade a recorded run against its problem spec.

    Finite-horizon proxies for the limiting definitions:

    - crystallizable: the run crystallized and the reported mean was within
      ``delta`` of the target at that instant.
    - maintainable: every sample after the burn-in ``t0`` has divergence to
      the target below ``delta``, and the peak windowed power after ``t0``
      stays below ``p_max``. With no sample after ``t0`` both peaks are nan
      and the run is not maintainable.
    - attainable: crystallizable, or the run ends with divergence below
      ``delta`` while the final window's power has collapsed below
      1% of ``p_max`` (the vanishing-power proxy for finite total energy).

    Crystallizable therefore implies attainable by construction. A run with
    no sample (one that crystallized at t = 0) has nan final divergence and
    power: it is crystallizable and attainable exactly when its outcome was
    accurate, and it is not maintainable.
    """

    samples = trace.samples
    max_kl_after = after_burn_in(samples, problem.t0, "kl_to_target", np.max)
    max_power_after = after_burn_in(samples, problem.t0, "windowed_power", np.max)

    outcome = trace.outcome
    crystallizable = bool(outcome.crystallized and outcome.accurate)
    maintainable = max_kl_after < problem.delta and max_power_after < problem.p_max
    final_kl = float(samples["kl_to_target"][-1]) if len(samples) else math.nan
    final_power = float(samples["windowed_power"][-1]) if len(samples) else math.nan
    attainable = crystallizable or (
        final_kl < problem.delta and final_power < 0.01 * problem.p_max
    )

    return ClassVerdict(
        attainable=attainable,
        maintainable=maintainable,
        crystallizable=crystallizable,
        evidence=ClassEvidence(
            final_kl=final_kl,
            max_kl_after_t0=max_kl_after,
            max_windowed_power_after_t0=max_power_after,
            final_windowed_power=final_power,
            crystallized=outcome.crystallized,
            crystallization_time=outcome.time,
            crystallization_accurate=outcome.accurate,
        ),
    )
