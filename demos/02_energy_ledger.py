#!/usr/bin/env python3
"""Energy accounting: what observations cost, and the thermodynamic floor.

Every observation that sharpens a belief removes entropy, and removing
entropy has a minimum price of kBT per nat. The ledger records each charge
and flags any entry priced below that floor (possible under fixed-cost
pricing, never under the thermodynamic minimum).
"""

import math

from beds import (
    EnergyLedger,
    EnergyModel,
    gaussian_entropy,
    info_gain,
    observation_cost,
)

print("entropy of a unit-precision belief:",
      f"{gaussian_entropy(1.0):.6f} nats  (= 0.5 ln(2 pi e))")

print("\n-- information gained per observation, by prior sharpness --")
for tau in (1.0, 10.0, 100.0, 1000.0):
    print(f"prior precision {tau:7.1f}: gain {info_gain(tau, 1.0):<9.6f} nats"
          f"  (0.5 ln(1 + 1/{tau:g}))")
print("The sharper you already are, the less a fixed-precision observation teaches you.")

print("\n-- pricing the same update under two models --")
landauer = EnergyModel(kind="landauer_min", kBT=1.0)
flat = EnergyModel(kind="fixed_cost", fixed_cost_value=0.05, kBT=1.0)
for tau in (1.0, 100.0):
    e_min, info = observation_cost(landauer, tau, 1.0)
    e_fix, _ = observation_cost(flat, tau, 1.0)
    print(f"prior {tau:6.1f}: landauer_min {e_min:.6f}   fixed_cost {e_fix:.3f}"
          f"   floor kBT*info = {info:.6f}")

print("\n-- ledger with a sub-thermodynamic charge --")
ledger = EnergyLedger(kBT=1.0)
ledger.charge(0.5, *observation_cost(landauer, 1.0, 1.0))
ledger.charge(1.0, *observation_cost(flat, 1.0, 1.0))   # 0.05 < 0.5 ln 2: flagged
ledger.charge(1.5, *observation_cost(flat, 100.0, 1.0))  # 0.05 clears the tiny bound
for t, energy, info, flagged in zip(ledger.times, ledger.energies, ledger.infos, ledger.sub_landauer):
    marker = "  <-- below the kBT floor" if flagged else ""
    print(f"t={t:3.1f}  energy={energy:.6f}  info={info:.6f}{marker}")
print(f"cumulative: energy={ledger.cumulative_energy:.6f}  info={ledger.cumulative_info:.6f} nats")
print(f"half a nat is {0.5 * math.log(2):.6f}; the flagged entry paid only 0.05.")
