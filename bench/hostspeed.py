"""Host-speed reference for wall times measured on a shared machine.

On a shared host the same code runs up to ~1.8x faster or slower from one
minute to the next, because of load outside this process.  The benchmark
therefore times a fixed reference kernel (a pure-Python loop plus a loop of
small-array numpy ufuncs, the two kinds of work the package does) ten times
a second between the program's ops, and scales each measured time by
``NOMINAL_S / local reference time``: a time is reported as it would read on
a host where the reference takes ``NOMINAL_S``.  The kernel belongs to the
benchmark, not to the program, so a change to the program moves the scaled
times in the same proportion as the raw ones.  Raw times are printed
alongside.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# duration of reference_seconds() that defines the reporting unit (close to
# its median on a shared 2-core x86 VM; the value only fixes the unit)
NOMINAL_S = 0.0025

_X = np.linspace(1.0, 2.0, 16)
_Y = np.linspace(0.5, 1.0, 16)


def reference_seconds() -> float:
    """Wall time of one pass of the fixed reference kernel."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i & 7
    d = np.ones(16)
    c = np.zeros(16, dtype=np.int64)
    for _ in range(400):
        d = _X + _Y / d
        c += d > 1.5
    return time.perf_counter() - t0


class HostSpeed:
    """Reference samples taken along a timed section, and the scale they imply.

    Samples come at an even density in time: one per ``interval`` seconds
    elapsed, taken between ops (up to ``burst`` at once after a long op).
    """

    def __init__(self, interval: float = 0.1, window: float = 2.0, burst: int = 8):
        self.interval = interval
        self.window = window
        self.burst = burst
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        d = reference_seconds()
        self.times.append(time.perf_counter())
        self.durations.append(d)

    def maybe_sample(self) -> None:
        if not self.times:  # a full burst first, so the first ops have a local estimate
            due = self.burst
        else:
            due = int((time.perf_counter() - self.times[-1]) / self.interval)
        for _ in range(min(due, self.burst)):
            self.sample()

    def scale_at(self, t: float) -> float:
        """NOMINAL_S over the median reference time within ``window`` s of ``t``."""
        lo = bisect.bisect_left(self.times, t - self.window)
        hi = bisect.bisect_right(self.times, t + self.window)
        if lo == hi:  # no sample that close: take the nearest one
            i = min(bisect.bisect_left(self.times, t), len(self.times) - 1)
            lo, hi = i, i + 1
        return NOMINAL_S / statistics.median(self.durations[lo:hi])

    def overall_scale(self) -> float:
        return NOMINAL_S / statistics.median(self.durations)
