"""Host seconds restated on a nominal host, to take out host noise.

On a shared host the same work takes a different time from one moment
to the next: a neighbour on the same core can slow a process by half
for milliseconds or for minutes.  So the worker times a fixed
pure-Python reference kernel right after each segment of its run, and
after every slice of ``sim.run`` (about 20 ms).  A segment that took
``d`` host seconds, followed by a kernel run of ``r`` seconds, counts as
``d * (REFERENCE_S / r) ** ELASTICITY`` seconds on the *nominal host*,
where the kernel takes ``REFERENCE_S``.  The kernel's own time is left
out of both.

``ELASTICITY`` is how the simulator's host time follows the kernel's:
when a neighbour doubles the kernel's time, ``sim.run`` takes about
2 ** 0.6 times as long.  It was fitted on a shared two-vCPU 2.1 GHz
Xeon host as the log-log slope of each process's ``sim.run`` seconds
against its mean kernel time: 0.58 and 0.61 in two samples of six
minutes (about 100 processes each, correlation 0.96 both times).

A faster simulator shortens ``d`` and leaves ``r`` alone, so it reads
faster on the nominal host as well.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict

# The reference kernel's time on the nominal host.
REFERENCE_S = 0.001

# d(log simulator time) / d(log kernel time) on a shared host.
ELASTICITY = 0.6


class _Unit:
    __slots__ = ("state",)

    def __init__(self) -> None:
        self.state = 0

    def step(self, x: int) -> int:
        self.state = (self.state * 31 + x) & 0xFFFF
        return self.state


def kernel(n: int = 2000) -> int:
    """Interpreter-bound work of the simulator's kind: method calls,
    attribute and dict traffic, a small queue."""
    units = [_Unit() for _ in range(8)]
    table: Dict[int, int] = {}
    queue = []
    acc = 0
    for i in range(n):
        v = units[i & 7].step(i)
        table[v & 63] = table.get(v & 63, 0) + 1
        queue.append(v)
        if len(queue) > 16:
            acc ^= queue.pop(0)
    return acc


def reference_s(reps: int) -> float:
    """Host seconds of one kernel run now: the median of *reps* runs."""
    perf = time.perf_counter
    times = []
    for _ in range(reps):
        t = perf()
        kernel()
        times.append(perf() - t)
    return statistics.median(times)


class Clock:
    """Segment times of one process, on the host and the nominal host.

    :meth:`lap` ends the current segment, which began where the last
    lap's reference timing ended (or at *start*).
    """

    def __init__(self, start: float) -> None:
        self.last = start
        self.host: Dict[str, float] = {}
        self.nominal: Dict[str, float] = {}

    def lap(self, segment: str, reps: int = 5) -> None:
        """End a stretch of *segment* now and time the kernel."""
        now = time.perf_counter()
        ref = reference_s(reps)
        took = now - self.last
        self.host[segment] = self.host.get(segment, 0.0) + took
        self.nominal[segment] = (self.nominal.get(segment, 0.0)
                                 + took * (REFERENCE_S / ref) ** ELASTICITY)
        self.last = time.perf_counter()
