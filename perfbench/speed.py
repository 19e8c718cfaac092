"""Reference-speed time: wall time corrected for the speed of the core.

On a 2-core virtual machine (Intel Xeon, Python 3.11) the speed of each core
changed by up to 60% within seconds, independently of the other core, and CPU
time drifted with it.  Raw wall times of one job spread by 40% from run to
run there.

`SpeedClock` pins the calling thread (and so every worker it starts) and a
sampler thread to one core.  Every `PERIOD_S` the sampler times
`unit_of_work`, a fixed piece of interpreter work much like the kernel's own
(rational arithmetic and dict stores).  `seconds(t0, t1)` turns a wall
interval into reference seconds: the wall time, scaled by `REF_UNIT_S` over
the unit's mean duration in that interval, i.e. the time the same work would
take on a core that runs `unit_of_work` in `REF_UNIT_S`.  The sampler takes
about 1% of the core.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from fractions import Fraction

PERIOD_S = 0.05
REF_UNIT_S = 0.0005
# Intervals shorter than the sampling period borrow samples from around them.
PAD_S = 0.1


def unit_of_work() -> Fraction:
    x = Fraction(1)
    table = {}
    for i in range(60):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        table[(i, i)] = x
    return x


class SpeedClock:
    def __init__(self):
        self.cpu = min(os.sched_getaffinity(0))
        self._times: list[float] = []
        self._rates: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedClock":
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        while not self._times:
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        clock = time.perf_counter
        while not self._stop.is_set():
            t0 = clock()
            unit_of_work()
            t1 = clock()
            # Rates first: a reader bisecting `_times` never indexes past `_rates`.
            self._rates.append(REF_UNIT_S / (t1 - t0))
            self._times.append((t0 + t1) / 2)
            self._stop.wait(PERIOD_S)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds for the `perf_counter` interval [t0, t1]."""
        lo = bisect.bisect_left(self._times, t0 - PAD_S)
        hi = bisect.bisect_right(self._times, t1 + PAD_S)
        rates = self._rates[lo:hi] or self._rates[-1:]
        return (t1 - t0) * sum(rates) / len(rates)


class WallClock:
    """Plain wall time, for runs whose times are not compared across runs."""

    @staticmethod
    def seconds(t0: float, t1: float) -> float:
        return t1 - t0
