"""Host-speed probe: a fixed pure-Python kernel that never calls egc128.

On a shared host the same code runs up to about 1.4x slower in busy
periods that last minutes, so raw seconds from runs taken minutes apart
do not compare: the spread (quartile distance over median) of raw wall
time over ten runs reached 0.27 on the 2-core host this benchmark was
built on, worst on the Python-dispatch-bound workloads.  Each run
therefore samples this kernel between operations and scales its times
by reference / measured kernel time, reporting seconds at the reference
host speed; the raw seconds are printed beside them.  The kernel belongs
to the benchmark, so a change to the package cannot move the factor, and
it allocates nothing, so it leaves peak memory alone.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Median kernel time on the reference host in a quiet period.
REFERENCE_S = 4.5e-3
#: Minimum seconds between two samples.
INTERVAL_S = 0.5


def _kernel() -> int:
    s = 0
    for i in range(60_000):
        s ^= i * i
    return s


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = perf_counter()
        _kernel()
        self._last = perf_counter()
        self.samples.append(self._last - t0)

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """Reference over measured kernel time; below 1 in a slow period."""
        return REFERENCE_S / statistics.median(self.samples)
