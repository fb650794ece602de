#!/usr/bin/env python3
"""Belief dynamics basics: exponential precision decay and conjugate updates.

A belief is two numbers, a mean and a precision. Left alone it forgets: its
precision decays as exp(-gamma * t) and its mean stays put. An observation
of precision tau_d adds exactly tau_d to the precision and pulls the mean
toward the observed value with weight tau_d / (tau + tau_d).
"""

import math

from beds import bayes_update, is_crystallized, propagate

GAMMA = 0.5

mean, precision = 0.0, 4.0
print(f"start:            mean={mean:+.4f}  precision={precision:8.4f}")

print("\n-- one time unit of pure dissipation --")
precision = propagate(precision, 1.0, GAMMA)
print(f"after decay:      mean={mean:+.4f}  precision={precision:8.4f}"
      f"   (factor e^-{GAMMA} = {math.exp(-GAMMA):.4f})")

print("\n-- three observations of the value 2.0 --")
for i in range(3):
    mean, precision = bayes_update(mean, precision, 2.0, 3.0)
    print(f"after update {i + 1}:   mean={mean:+.4f}  precision={precision:8.4f}")

print("\n-- alternating decay and observation --")
t = 1.0
for step in range(5):
    precision = propagate(precision, 0.5, GAMMA)
    mean, precision = bayes_update(mean, precision, 2.0, 3.0)
    t += 0.5
    crystal = is_crystallized(precision, epsilon=0.05)
    print(f"t={t:3.1f}  mean={mean:+.4f}  precision={precision:8.4f}"
          f"  variance<0.05? {crystal}")

print("\nThe mean settles on the observed value while the precision approaches")
print("the balance point where per-step decay equals the per-step gain.")
