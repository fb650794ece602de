#!/usr/bin/env python3
"""Tracking a moving target: how the needed observation rate grows with speed.

Runs the verify suite's tracking sweep: target velocity against an
observation-rate ladder (ten replicate seeds per cell). Writes the raw table
to tracking_sweep.csv, and reports the minimal rate at which the
seed-averaged peak divergence stays below the budget. Faster targets need
at least as high a rate; the fastest exceeds every rate on this ladder.
"""

from beds.verify import check_tracking_sweep

non_decreasing, measured, table = check_tracking_sweep()

with open("tracking_sweep.csv", "w") as fh:
    fh.write(table.to_csv())
print(f"wrote {len(table.rows)} rows to tracking_sweep.csv")

print(f"\nseed-averaged peak divergence (nats), budget delta = {measured['delta']}")
print("velocity " + "".join(f"rate {rate:4.0f} " for rate in measured["rates"]))
for v in measured["velocities"]:
    row = " ".join(f"{measured['mean_max_kl'][f'v={v},rate={rate:g}']:9.3f}" for rate in measured["rates"])
    print(f"{v:8.1f} {row}")

print("\nminimal rate meeting the budget:")
for v, rate in zip(measured["velocities"], measured["min_rate_per_velocity"]):
    print(f"velocity {v:3.1f}: {'none on this ladder' if rate is None else f'{rate:g} obs/time'}")
print(f"non-decreasing in velocity: {non_decreasing}")
