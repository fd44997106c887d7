"""Scaling of measured times to a fixed host speed.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts:
a fixed integer loop took from 21 ms to 39 ms in 3-second windows of one
minute, CPU time equal to wall time, with nothing else running in the VM.
Whole 30-second runs can fall in a slow spell, so neither medians nor
best-of-passes within a run keep the drift out of the figures.

A reference kernel (breadth-first searches over a fixed 400-vertex graph,
pure Python with dicts, sets and a deque, about 1 ms, and no twreach code)
is timed right before and right after every timed region, and every TICK_S
inside it from a SIGALRM handler. The ticks' own time is taken out of the
region's wall time, and each stretch of the region is scaled by REF_S over
the kernel time measured in it: the result is the time the region would
take on a host that runs the kernel in REF_S. A change to twreach moves the
region and not the kernel, so it moves the scaled time by the same share as
the wall time.
"""
from __future__ import annotations

import random
import signal
import time
from collections import deque

# About the median time of reference_kernel() on a 2-vCPU VM of the shared
# host in a fast spell (CPython 3, no other load in the VM; best 0.72 ms).
# It only sets the scale: spreads and ratios do not depend on it.
REF_S = 0.00085
TICK_S = 0.05  # kernel runs inside a region; about 2% of its time

_rng = random.Random(12345)
_ADJ: dict[int, set[int]] = {v: set() for v in range(400)}
for _v in range(400):
    for _ in range(3):
        _w = _rng.randrange(400)
        _ADJ[_v].add(_w)
        _ADJ[_w].add(_v)


def reference_kernel() -> int:
    """Fixed work: four breadth-first searches; returns the vertices reached."""
    total = 0
    for src in (0, 100, 200, 300):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in _ADJ[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        total += len(dist)
    return total


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class HostSpeed:
    """Times the kernel around and inside timed regions and scales each region by it.

    The kernel time taken after one region also serves as the "before" of
    the next, so back-to-back regions cost one extra kernel run each.
    """

    def __init__(self):
        self.last = kernel_seconds()
        self.kernel_times = [self.last]
        self._ticks: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._handler = signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self._ticks.append((t0, time.perf_counter() - t0))

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def refresh(self) -> None:
        """New "before" sample, for a region that does not follow the last one."""
        self.last = kernel_seconds()
        self.kernel_times.append(self.last)

    def start(self) -> None:
        """Call right before the region's clock starts."""
        self._ticks = []
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds, seconds at the REF_S speed) of the region [t0, t1]."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        inside = [k for start, k in self._ticks if t0 <= start < t1]
        wall = t1 - t0 - sum(inside)
        now = kernel_seconds()
        # mean speed over the region: inside ticks weigh 1, the two ends 1/2
        speed = (0.5 / self.last + 0.5 / now + sum(1 / k for k in inside)) / (1 + len(inside))
        self.kernel_times += inside + [now]
        self.last = now
        return wall, wall * REF_S * speed
