"""Independent references for the energy layer, computed one charge at a time.

``windowed_power`` and ``energy_up_to`` sum a window's charges directly,
where the engine derives both from the ledger's running totals.
``observation_cost`` prices one observation with scalar math, and
``ReferenceLedger`` keeps its totals as a running ``+=``: the package prices
and totals whole columns at once, and must match these exactly.
"""

import math

import numpy as np

from beds.core import EnergyModel, NonMonotonicTime
from beds.energy import EnergyLedger


def windowed_power(ledger: EnergyLedger, t_end: float, window: float) -> float:
    """Average power over the half-open window (t_end - window, t_end]."""

    if window <= 0:
        raise ValueError(f"window must be > 0, got {window!r}")
    charges = zip(ledger.times.tolist(), ledger.energies.tolist())
    return sum(energy for t, energy in charges if t_end - window < t <= t_end) / window


def energy_up_to(ledger: EnergyLedger, t: float) -> float:
    """Cumulative energy of all charges with time <= t."""

    return sum(energy for time, energy in zip(ledger.times.tolist(), ledger.energies.tolist()) if time <= t)


def observation_cost(model: EnergyModel, tau_before: float, tau_d: float) -> tuple[float, float]:
    """Price one observation, returning ``(energy, info)``.

    ``info`` is the information gained at the pre-update precision; energy is
    its thermodynamic minimum ``kBT * info`` under ``landauer_min``, or the
    flat ``fixed_cost_value`` under ``fixed_cost``.
    """

    info = 0.5 * math.log1p(tau_d / tau_before)
    if model.kind == "fixed_cost":
        return model.fixed_cost_value, info
    return model.kBT * info, info


class ReferenceLedger:
    """Charges appended to lists, with each total a running ``+=`` from 0.0."""

    def __init__(self, kBT: float = 1.0):
        self.kBT = kBT
        self.times, self.energies, self.infos, self.cumulative = [], [], [], []
        self.cumulative_energy = 0.0
        self.cumulative_info = 0.0

    def charge(self, t: float, energy: float, info: float) -> "ReferenceLedger":
        if self.times and t < self.times[-1]:
            raise NonMonotonicTime(f"charge at t={t!r} precedes last entry at t={self.times[-1]!r}")
        self.cumulative_energy += energy
        self.cumulative_info += info
        self.times.append(t)
        self.energies.append(energy)
        self.infos.append(info)
        self.cumulative.append(self.cumulative_energy)
        return self

    @property
    def sub_landauer(self) -> list[bool]:
        return [energy < self.kBT * info for energy, info in zip(self.energies, self.infos)]


def ledger_state(ledger: EnergyLedger | ReferenceLedger) -> dict:
    """Every column as a list of Python scalars, and both totals, for comparison with ``==``."""

    state = {
        name: np.asarray(getattr(ledger, name)).tolist()
        for name in ("times", "energies", "infos", "cumulative", "sub_landauer")
    }
    state["totals"] = (ledger.cumulative_energy, ledger.cumulative_info)
    return state
