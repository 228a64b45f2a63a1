"""Wall time rescaled to a fixed core speed.

On a shared host the speed of one core drifts by up to a factor of two over
seconds to minutes as other tenants come and go, so raw wall times of the
same code spread by 20-30% between runs.  A `SpeedClock` measures that drift
while the timed code runs: every `INTERVAL` seconds a SIGALRM handler runs a
fixed probe, pure Python work that touches nothing of the package, and times
it.  The wall time between two probes is divided by the probe time (a running
median of `SMOOTH` probes, so that one interrupted probe does not count),
which gives the time in probe units; probe units times `NOMINAL_S`, the
probe's time on an uncontended core, are the rescaled seconds.  The probes'
own time is left out of both.

The handler runs between bytecodes of the main thread and leaves the timed
code's data alone, so the timed code computes exactly what it would without
it.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

INTERVAL = 0.05
SMOOTH = 5
# Time of one `probe` on an uncontended core of an Intel Xeon (2 vCPUs,
# Python 3.11): the scale that turns probe units into seconds.
NOMINAL_S = 0.0003


def probe() -> float:
    """About a third of a millisecond of interpreter work: float arithmetic, calls
    into math and building a small list."""
    s = 0.0
    for k in range(1, 2_000):
        s += 1.0 / (1.25 - math.cos(k * 1e-3))
    return sum([s * k for k in range(400)])


class SpeedClock:
    """``with SpeedClock() as clock: ...`` times the block; afterwards
    ``clock.wall_s`` is its wall time without the probes and ``clock.scaled_s``
    that time rescaled to the nominal core speed."""

    def __init__(self):
        self.samples = []       # (start, end) of each probe

    def _sample(self, signum=None, frame=None):
        t0 = perf_counter()
        probe()
        self.samples.append((t0, perf_counter()))

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()          # so that the block's tail has a probe after it
        return False

    @property
    def probe_s(self) -> list:
        return [b - a for a, b in self.samples]

    @property
    def wall_s(self) -> float:
        return self.samples[-1][0] - self.start - sum(self.probe_s[:-1])

    @property
    def units(self) -> float:
        """The block's wall time in probe units: each stretch between probes
        divided by the smoothed time of the probe that ends it."""
        times = self.probe_s
        half = SMOOTH // 2
        units, previous_end = 0.0, self.start
        for i, (a, b) in enumerate(self.samples):
            window = times[max(0, i - half):i + half + 1]
            units += (a - previous_end) / statistics.median(window)
            previous_end = b
        return units

    @property
    def scaled_s(self) -> float:
        return NOMINAL_S * self.units
