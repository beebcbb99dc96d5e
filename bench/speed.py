"""Machine-speed calibration between timed intervals.

On a shared host the cores of this benchmark's machine run tens of percent
slower for seconds at a time.  Before each timed operation, and after the
last, the benchmark times a fixed pure-Python kernel (a reading).  An
interval's time is reported at the reference speed: multiplied by
REFERENCE_S over the median of the two readings before it and the first
reading after it.  The readings run between operations, never beside one,
so they do not slow what is measured.
"""

from __future__ import annotations

import bisect
import statistics
import time

clock = time.perf_counter

#: The kernel's time at the reference speed: the fastest steady level seen
#: on the 2-core x86-64 host the benchmark was built on.
REFERENCE_S = 0.012


def kernel() -> int:
    total = 0
    for _ in range(10):
        for i in range(20000):
            total += i * i % 7
    return total


def reading() -> list[float]:
    """[time taken, seconds the kernel ran]."""
    t = clock()
    kernel()
    return [t, clock() - t]


class Speed:
    """Readings taken over a run, sorted by time."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def add(self, readings: list[list[float]]) -> None:
        for t, duration in readings:
            i = bisect.bisect(self.times, t)
            self.times.insert(i, t)
            self.durations.insert(i, duration)

    def sample(self) -> None:
        self.add([reading()])

    def factor(self, start: float, end: float) -> float:
        before = bisect.bisect_right(self.times, start)
        after = bisect.bisect_left(self.times, end)
        around = self.durations[max(0, before - 2):before] + self.durations[after:after + 1]
        return REFERENCE_S / statistics.median(around) if around else 1.0

    def seconds(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
