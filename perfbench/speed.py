"""Machine-speed probe for the timed phases.

The shared host this benchmark was tuned on switches between a fast and a
slow state (about 1.5x apart) in phases of seconds to minutes, and a whole
run can fall in either. A fixed piece of benchmark-owned work, run from a
SIGALRM handler every INTERVAL seconds of wall time, samples the machine's
speed uniformly over a phase.

A phase's time is reported at reference speed: its raw time multiplied by
REFERENCE_S / (harmonic mean of the probe times), which is the time the
phase would have taken at the speed where one probe takes REFERENCE_S.
Time spent in the probe itself is subtracted from every measured interval
first. This module imports no third-party package, so a fresh interpreter
can time its import of numpy and torsolve under the probe.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.05
# One probe's time on the 2-core host the benchmark was tuned on, in its
# fast state. Only a unit: the same constant converts every run, so ratios
# between runs hold on any machine.
REFERENCE_S = 0.8e-3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def times(self, other):
        return _Point(self.x * other.x - self.y * other.y, self.x * other.y + self.y * other.x)


_STEP = _Point(0.99, 0.01)


def probe_work() -> float:
    """Small objects, method calls, dict inserts, a sort and Fraction
    arithmetic: interpreter work of the kind torsolve's hulls, trees and
    path bookkeeping do. Fitted over 26-32 rounds of 5-9 s on the tuning
    host, spanning both states, log round time against log mean probe time
    had slope 0.83-1.02 on the general, exact and decomposable rounds, with
    2.6-3.6% residual spread; an arithmetic-loop-and-small-solve probe had
    slope 1.26-1.44, and a numpy-bandwidth probe 2.55 on general."""
    p = _Point(0.9, 0.1)
    seen = {}
    for i in range(800):
        p = p.times(_STEP)
        seen[(i, i & 7)] = p.x
    q = Fraction(1, 3)
    for i in range(1, 100):
        q = q * Fraction(i + 1, i) - Fraction(1, i + 2)
    return sorted(seen.values())[0] + float(q)


class SpeedProbe:
    """Samples probe times while active. `spent` is the wall time the
    handler took, so callers can take it out of what they measure."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self) -> float:
        """Factor that converts raw seconds of this probe's phase to seconds
        at reference speed."""
        return REFERENCE_S * statistics.fmean(1.0 / t for t in self.samples)
