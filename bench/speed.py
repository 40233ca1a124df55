"""How fast the machine runs at this moment, from a fixed reference loop.

On a shared host other tenants slow this process down, by up to about
2x, in bursts that last from seconds to minutes; a whole run can sit
inside one.  No choice of which passes to keep removes that, so every
timing is also expressed at the reference speed: a job's latency is
multiplied by REF_S over the mean time of the reference loop measured
just before the job, every TICK_S during it (from a SIGALRM handler,
whose time is taken out of the job's latency) and just after it.

The loop is pure Python over `Fraction` products and a tuple-keyed
dict, the operations the package spends its time on.  It never calls
the package and its data is small enough to stay in the processor's
caches, so a change to the package, or to how much memory it touches,
cannot move it.  REF_S is its time on this benchmark's reference
machine in a quiet moment; it only fixes the unit, so a value reads as
seconds on that machine.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

REF_S = 0.00105
TICK_S = 0.05
_DATA = [Fraction(i % 97 + 1, i % 89 + 1) for i in range(256)]


def reference_loop():
    """Time of one pass of the reference loop, garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc, table = Fraction(0), {}
        for i in range(256):
            x = _DATA[i] * _DATA[(i * 7) % 256]
            acc += x
            key = (i % 7, i % 13)
            table[key] = table.get(key, 0) + x
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Reference-loop samples over time, with the time they cost.
    `on_tick(seconds)` is told the cost of each sample taken by the
    timer, so that a tracer can leave it out of self times."""

    def __init__(self, on_tick=None):
        self.samples = []
        self.cost_s = 0.0
        self.on_tick = on_tick

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(reference_loop())
        cost = perf_counter() - t0
        self.cost_s += cost
        if self.on_tick:
            self.on_tick(cost)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def mark(self):
        """Sample now, outside any timed region; the sample's index."""
        self.samples.append(min(reference_loop(), reference_loop()))
        return len(self.samples) - 1

    def factor(self, first, last):
        """REF_S over the mean loop time from sample `first` to `last`."""
        window = self.samples[first:last + 1]
        return REF_S * len(window) / sum(window)
