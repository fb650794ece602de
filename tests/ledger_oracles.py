"""Windowed power and energy-to-date of an ``EnergyLedger``, summed charge by charge.

The engine derives both from the ledger's running totals; these oracles add
the charges in a window directly.
"""

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
