"""Information-theoretic and thermodynamic accounting.

Entropies and information gains are measured in nats throughout, and the
thermodynamic minimum for an observation that gains ``I`` nats is
``kBT * I``. Entries priced below that bound (possible under the fixed-cost
model) are recorded with a ``sub_landauer`` flag rather than rejected, so
sub-thermodynamic configurations remain explorable but never silent.
"""

from __future__ import annotations

import math

import numpy as np

from .core import EnergyModel, NonMonotonicTime, NonPositivePrecision, blocks, libm
from .io import csv_text, write_csv

__all__ = [
    "EnergyLedger",
    "gaussian_entropy",
    "info_gain",
    "landauer_min_energy",
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


def observation_costs(
    model: EnergyModel, tau_before: np.ndarray, tau_d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Price observations, returning the ``(energies, infos)`` arrays.

    Entry ``i`` prices an observation of precision ``tau_d[i]`` on a prior of
    precision ``tau_before[i]``; both must be positive, which is not checked
    here. Its info is the gain at the pre-update precision, as
    :func:`info_gain`; its energy is that gain's thermodynamic minimum under
    ``landauer_min``, or the flat ``fixed_cost_value`` under ``fixed_cost``.
    At ``kBT == 1`` that minimum is the infos array itself (``1.0 * x == x``
    for every double), so a caller that writes to one writes to both.
    """

    with np.errstate(over="ignore"):  # a ratio past the float range gains inf, as in Python
        ratios = tau_d / tau_before
    infos = 0.5 * libm(math.log1p, ratios)
    if model.kind == "fixed_cost":
        return np.full(len(infos), model.fixed_cost_value), infos
    return (infos if model.kBT == 1.0 else landauer_min_energy(infos, model.kBT)), infos


def _running_totals(column: np.ndarray) -> np.ndarray:
    # The totals of a running += from 0.0: np.cumsum adds in order, where
    # sum() and np.sum() may round differently.
    return np.cumsum(np.concatenate(([0.0], column)))[1:]


class EnergyLedger:
    """Append-only, time-ordered record of per-observation energy charges.

    Charge ``i`` is stored once, across the float64 arrays ``times``,
    ``energies`` (energy paid), ``infos`` (nats gained) and ``cumulative``
    (running energy total). Cumulative energy and information are read from
    those columns. ``kBT`` is kept so each charge can be checked against its
    thermodynamic minimum.
    """

    def __init__(self, kBT: float = 1.0):
        self.kBT = kBT
        self.times = self.energies = self.infos = self.cumulative = np.empty(0)

    @classmethod
    def from_columns(
        cls, times: np.ndarray, energies: np.ndarray, infos: np.ndarray, kBT: float = 1.0
    ) -> "EnergyLedger":
        """A ledger holding charge ``i`` = ``(times[i], energies[i], infos[i])``.

        Times must be non-decreasing. The ledger keeps contiguous float64
        arrays of the columns, which may share memory with the arguments.
        """

        times, energies, infos = (
            np.ascontiguousarray(column, dtype=np.float64) for column in (times, energies, infos)
        )
        back = np.flatnonzero(np.diff(times) < 0)
        if len(back):
            raise NonMonotonicTime(
                f"charge at t={times[back[0] + 1].item()!r} "
                f"precedes last entry at t={times[back[0]].item()!r}"
            )
        ledger = cls(kBT)
        ledger.times, ledger.energies, ledger.infos = times, energies, infos
        ledger.cumulative = _running_totals(energies)
        return ledger

    def __len__(self) -> int:
        return len(self.times)

    @property
    def cumulative_energy(self) -> float:
        """Total energy paid: the last running total, 0.0 for an empty ledger."""

        return self.cumulative[-1].item() if len(self.cumulative) else 0.0

    @property
    def cumulative_info(self) -> float:
        """Total information gained, summed in charge order one block at a time; 0.0 for an empty ledger."""

        total = 0.0
        for rows in blocks(len(self.infos)):
            total = np.cumsum(np.concatenate(([total], self.infos[rows])))[-1].item()
        return total

    @property
    def sub_landauer(self) -> np.ndarray:
        """Per charge, as a bool array: whether it was priced below its minimum ``kBT * info``."""

        return self.energies < self.kBT * self.infos

    def charge(self, t: float, energy: float, info: float) -> "EnergyLedger":
        """Append a charge at time ``t``; times must be non-decreasing.

        Each call rebuilds the ledger through :meth:`from_columns`, copying
        every column, so it suits demos and tests; a run builds its ledger at once.
        """

        appended = np.append(self.times, t), np.append(self.energies, energy), np.append(self.infos, info)
        vars(self).update(vars(self.from_columns(*appended, self.kBT)))
        return self

    def to_csv(self, handle=None) -> str | None:
        """The ledger as CSV: time, energy, info_gain, cumulative_energy, sub_landauer.

        Streams the bytes to the binary ``handle`` block by block when one is
        given (see :func:`beds.io.write_csv`); returns the text otherwise.
        """

        header = ("time", "energy", "info_gain", "cumulative_energy", "sub_landauer")
        columns = [self.times, self.energies, self.infos, self.cumulative, self.sub_landauer]
        if handle is None:
            return csv_text(header, columns)
        write_csv(handle, header, columns)
        return None
