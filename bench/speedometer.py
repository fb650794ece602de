"""Host-speed calibration for timings taken on a shared machine.

On the 2-vCPU host where this benchmark was defined, the same Python code ran
up to 2x slower in one 30-second window than in another. Steal time stayed at
zero and process CPU time matched wall time, so the process was not being
preempted. The cores themselves ran slower, because other tenants were busy
on the same hardware. Medians of raw wall time spread by 16-30% between runs.

A ``Speedometer`` times a fixed pure-Python reference kernel every 20 ms, on
the benchmark's own thread, from a SIGALRM handler. Each interval of work
between two ticks is divided by the kernel time measured at the tick that
closes it. The result is the work done in kernel units, and it stays steady
while the host's speed swings. Multiplied by ``REFERENCE_S`` it reads as
seconds at the nominal speed. Time spent in the kernel itself is left out.

The handler touches no `beds` state, so the program's outputs do not change.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass

INTERVAL_S = 0.02
# The kernel's median time on the machine that defined the benchmark
# (Python 3.11, 2 vCPUs). It only scales the unit; nothing depends on its value.
REFERENCE_S = 360e-6


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def reference_kernel() -> float:
    """Fixed work shaped like the engine's: float math, small frozen objects, dicts."""

    x = 1.0
    rows = []
    for i in range(200):
        pair = _Pair(x, 1.0 / (i + 1))
        x = pair.a * math.exp(-0.001) + pair.b
        rows.append({"x": x})
    return x


class Speedometer:
    """A clock that counts work at nominal speed rather than elapsed time."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        # (units so far, end of the last tick, kernel time at the last tick) are
        # swapped in one assignment, so ``now`` never reads a half-updated state.
        self._state = (0.0, self._clock(), REFERENCE_S)
        self.ticks = 0
        self.kernel_total_s = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        begin = self._clock()
        reference_kernel()
        end = self._clock()
        units, last, _ = self._state
        kernel = end - begin
        self._state = (units + (begin - last) / kernel, end, kernel)
        self.ticks += 1
        self.kernel_total_s += kernel

    def now(self) -> float:
        """Calibrated seconds since the speedometer was made."""

        units, last, kernel = self._state
        return (units + (self._clock() - last) / kernel) * REFERENCE_S

    def mean_kernel_us(self) -> float:
        return 1e6 * self.kernel_total_s / self.ticks if self.ticks else 0.0
