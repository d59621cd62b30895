"""Host speed, sampled while a workload runs, to normalise its timings.

The benchmark runs on a few virtual CPUs of a shared host whose speed
drifts by 20-40% over seconds to minutes (CPU time tracks wall time, so
the loss is in instructions per second, not in scheduling).  A wall-clock
rate then mostly measures the host.  To take that out, ``Sampler`` runs a
fixed calibration unit, a pure-Python integer loop that uses nothing from
the library, twice from a ``SIGALRM`` handler every ``PERIOD_S`` seconds
of wall time and times the second run, so the samples interleave finely
with the workload and see the same host state.  The units take about 4%
of a run.  Of the units tried (this loop, small LAPACK calls, batched
10x10 products, and mixes of them), the loop's time tracked the pass rates
of all three workloads best on the host the benchmark was sized on.

``clock()`` is wall time less the time spent in calibration units, so a
region timed with it holds only the workload's own work.  A region's
*normalised* time is its work time times ``REFERENCE_UNIT_S`` over the
median unit time sampled in that region: the time it would take on a host
running one unit in ``REFERENCE_UNIT_S``, about the unit's typical time on the
2-vCPU 2.1 GHz Xeon the benchmark was sized on.  A faster library lowers
normalised times as much as wall times; a slower host does not.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.025
REFERENCE_UNIT_S = 0.5e-3


def unit() -> int:
    """One calibration unit (about 0.5 ms); its result, so nothing is skipped."""
    s = 0
    for i in range(7000):
        s += i * i
    return s


class Sampler:
    """Calibration units on a wall-clock timer; ``clock`` excludes their time."""

    def __init__(self):
        self.spent = 0.0
        self.units: list[float] = []

    def _tick(self, signum, frame):
        # the first unit refills the caches the workload evicted, so the timed
        # one measures the host, not the workload's memory footprint
        t0 = time.perf_counter()
        unit()
        t1 = time.perf_counter()
        unit()
        t2 = time.perf_counter()
        self.units.append(t2 - t1)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Wall seconds (perf_counter) less the seconds spent in calibration units."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.units)

    def unit_s(self, since: int) -> float:
        """Median unit time sampled since a mark (the latest three if fewer)."""
        window = self.units[since:]
        if len(window) < 3:
            window = self.units[-3:] or [REFERENCE_UNIT_S]
        return statistics.median(window)
