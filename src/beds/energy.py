"""Information-theoretic and thermodynamic accounting.

Entropies and information gains are measured in nats throughout, and the
thermodynamic minimum for an observation that gains ``I`` nats is
``kBT * I``. Entries priced below that bound (possible under the fixed-cost
model) are recorded with a ``sub_landauer`` flag rather than rejected, so
sub-thermodynamic configurations remain explorable but never silent.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .core import EnergyModel, NonMonotonicTime, NonPositivePrecision
from .io import csv_text

__all__ = [
    "EnergyLedger",
    "gaussian_entropy",
    "info_gain",
    "landauer_min_energy",
    "observation_cost",
    "observation_costs",
]

_HALF_LN_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


def gaussian_entropy(precision: float) -> float:
    """Differential entropy of a Gaussian in nats: (1/2) ln(2 pi e) - (1/2) ln(precision)."""

    return _HALF_LN_2PIE - 0.5 * math.log(precision)


def info_gain(tau: float, tau_d: float) -> float:
    """Information gained (nats) by an observation of precision ``tau_d`` on a prior of precision ``tau``.

    Equals the entropy drop of the conjugate update, (1/2) ln(1 + tau_d/tau),
    and is strictly positive for positive arguments.
    """

    if tau <= 0:
        raise NonPositivePrecision(f"tau must be > 0, got {tau!r}")
    if tau_d <= 0:
        raise NonPositivePrecision(f"tau_d must be > 0, got {tau_d!r}")
    return 0.5 * math.log1p(tau_d / tau)


def landauer_min_energy(info_nats: float, kBT: float = 1.0) -> float:
    """Minimum energy required to acquire ``info_nats`` nats of information."""

    return kBT * info_nats


def observation_cost(model: EnergyModel, tau_before: float, tau_d: float) -> tuple[float, float]:
    """Price one observation, returning ``(energy, info)``.

    ``info`` is the information gained at the pre-update precision; energy is
    its thermodynamic minimum under ``landauer_min``, or the flat
    ``fixed_cost_value`` under ``fixed_cost``.
    """

    info = info_gain(tau_before, tau_d)
    if model.kind == "fixed_cost":
        return model.fixed_cost_value, info
    return landauer_min_energy(info, model.kBT), info


def observation_costs(
    model: EnergyModel, tau_before: list[float], tau_d: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Column form of :func:`observation_cost`: the ``(energies, infos)`` arrays.

    Entry ``i`` prices an observation of precision ``tau_d[i]`` on a prior of
    precision ``tau_before[i]``; both must be positive, which is not checked
    here.
    """

    # Scalar math.log1p per element: numpy's differs in the last ulp.
    infos = np.array([0.5 * math.log1p(od / tau) for tau, od in zip(tau_before, tau_d)], dtype=float)
    if model.kind == "fixed_cost":
        return np.full(len(infos), model.fixed_cost_value), infos
    return landauer_min_energy(infos, model.kBT), infos


def _running_totals(column: np.ndarray) -> np.ndarray:
    # The totals of charge()'s running += from 0.0: np.cumsum adds in order,
    # where sum() and np.sum() may round differently.
    return np.cumsum(np.concatenate(([0.0], column)))[1:]


class EnergyLedger:
    """Append-only, time-ordered record of per-observation energy charges.

    Charge ``i`` is stored once, across the column lists ``times``,
    ``energies`` (energy paid), ``infos`` (nats gained) and ``cumulative``
    (running energy total). Cumulative energy and information always equal
    the sums over charges. ``kBT`` is kept so each charge can be checked
    against its thermodynamic minimum.
    """

    def __init__(self, kBT: float = 1.0):
        self.kBT = kBT
        self.times: list[float] = []
        self.energies: list[float] = []
        self.infos: list[float] = []
        self.cumulative: list[float] = []
        self.cumulative_energy = 0.0
        self.cumulative_info = 0.0

    @classmethod
    def from_columns(
        cls, times: np.ndarray, energies: np.ndarray, infos: np.ndarray, kBT: float = 1.0
    ) -> "EnergyLedger":
        """A ledger holding charge ``i`` = ``(times[i], energies[i], infos[i])``.

        Equal to charging the rows one by one, totals included.
        """

        times = np.asarray(times, dtype=float)
        back = np.flatnonzero(np.diff(times) < 0)
        if len(back):
            raise NonMonotonicTime(
                f"charge at t={times[back[0] + 1].item()!r} "
                f"precedes last entry at t={times[back[0]].item()!r}"
            )
        ledger = cls(kBT)
        cumulative = _running_totals(energies)
        ledger.times = times.tolist()
        ledger.energies = np.asarray(energies, dtype=float).tolist()
        ledger.infos = np.asarray(infos, dtype=float).tolist()
        ledger.cumulative = cumulative.tolist()
        if len(times):
            ledger.cumulative_energy = ledger.cumulative[-1]
            ledger.cumulative_info = _running_totals(infos)[-1].item()
        return ledger

    def __len__(self) -> int:
        return len(self.times)

    @property
    def sub_landauer(self) -> list[bool]:
        """Per charge: whether it was priced below its minimum ``kBT * info``."""

        return [energy < self.kBT * info for energy, info in zip(self.energies, self.infos)]

    def charge(self, t: float, energy: float, info: float) -> "EnergyLedger":
        """Append a charge at time ``t``; times must be non-decreasing."""

        if self.times and t < self.times[-1]:
            raise NonMonotonicTime(
                f"charge at t={t!r} precedes last entry at t={self.times[-1]!r}"
            )
        self.cumulative_energy += energy
        self.cumulative_info += info
        self.times.append(t)
        self.energies.append(energy)
        self.infos.append(info)
        self.cumulative.append(self.cumulative_energy)
        return self

    def windowed_power(self, t_end: float, window: float) -> float:
        """Average power over the half-open window (t_end - window, t_end]."""

        if window <= 0:
            raise ValueError(f"window must be > 0, got {window!r}")
        hi = bisect_right(self.times, t_end)
        lo = bisect_right(self.times, t_end - window)
        if hi == lo:
            return 0.0
        energy = self.cumulative[hi - 1] - (self.cumulative[lo - 1] if lo else 0.0)
        return energy / window

    def energy_up_to(self, t: float) -> float:
        """Cumulative energy of all entries with time <= t."""

        hi = bisect_right(self.times, t)
        return self.cumulative[hi - 1] if hi else 0.0

    def to_csv(self) -> str:
        """Render as CSV: time, energy, info_gain, cumulative_energy, sub_landauer."""

        return csv_text(
            ("time", "energy", "info_gain", "cumulative_energy", "sub_landauer"),
            zip(self.times, self.energies, self.infos, self.cumulative, self.sub_landauer),
        )
