"""Host-speed calibration for the decode benchmark.

The CPU of a shared host can run more than 1.5x slower for minutes at a
time, and its speed also fluctuates within a second, for reasons outside
the program. ``HostClock`` times a fixed piece of pure-Python work that uses
no ctcdec code, between the steps the benchmark times, and the benchmark
divides each time by the slowdown sampled just before it (aggregate rates:
by the run's mean slowdown). Both the raw and the scaled figures are
printed.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

#: Mean time of ``calibration_work`` on the host the workloads were sized on
#: (2-core x86-64 VM, CPython 3.11) when it runs at full speed. It only sets
#: the scale of the reported times.
REFERENCE_CALIBRATION_S = 0.009
CALIBRATION_REPEATS = 5


def calibration_work() -> None:
    """Fixed pure-Python work that uses no ctcdec code, shaped like a beam
    search step: extend tuple prefixes and merge scores in a dict. Work of
    the same shape slows by about as much as the decoder does when the
    host is contended."""
    merged: dict[tuple[int, ...], list[float]] = {}
    base = (1, 2, 3, 4, 5, 6, 7, 8)
    for i in range(27000):
        prefix = base + (i % 83, i % 7)
        score = math.log1p(i)
        entry = merged.get(prefix)
        if entry is None:
            merged[prefix] = [score, -math.inf]
        elif score > entry[0]:
            entry[0] = score


class HostClock:
    """Samples the host's speed with ``calibration_work`` while a run goes on."""

    def __init__(self, interval_s: float, repeats: int = CALIBRATION_REPEATS) -> None:
        self.interval_s = interval_s
        self.repeats = repeats
        self.samples: list[float] = []
        #: Slowdown in effect at each ``mark``, in order.
        self.marks: list[float] = []
        self.spent_s = 0.0
        self._last = -math.inf
        self._latest = 1.0

    def sample(self) -> None:
        start = perf_counter()
        batch = []
        for _ in range(self.repeats):
            t = perf_counter()
            calibration_work()
            batch.append(perf_counter() - t)
        self.samples += batch
        self._latest = statistics.fmean(batch) / REFERENCE_CALIBRATION_S
        self._last = perf_counter()
        self.spent_s += self._last - start

    def mark(self) -> None:
        """Sample if ``interval_s`` has passed, and note the slowdown for the next step."""
        if perf_counter() - self._last >= self.interval_s:
            self.sample()
        self.marks.append(self._latest)

    @property
    def slowdown(self) -> float:
        """Mean calibration time over the reference: >1 on a slower host."""
        return statistics.fmean(self.samples) / REFERENCE_CALIBRATION_S
