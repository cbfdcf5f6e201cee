"""Operation times corrected for the machine's changing speed.

On a shared host the same Python code runs up to twice as slowly from
one fraction of a second to the next, and which share of a run is slow
changes from run to run. Times taken as they are then spread too widely
to compare two commits, and an operation longer than the fast stretches
never runs at full speed.

SpeedClock samples the speed while operations run: every INTERVAL_S a
timer signal runs a fixed calibration loop in this process and records
the CPU time it took (CPU time, so that a sample that a child process
interrupts does not read as slow). An operation's time is the sum of its
pieces between samples, each scaled by REFERENCE_SAMPLE_S over the
duration of the samples around it; the samples' wall time is left out. The result
is the time the operation takes on a CPU that runs the calibration loop
in REFERENCE_SAMPLE_S. Child processes are measured the same way while
the benchmark keeps itself and the child on one CPU, so that the samples
run where the child runs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter, thread_time

INTERVAL_S = 0.02
# The calibration loop's duration on an undisturbed core of the host the
# benchmark was built on (Intel Xeon, 2 vCPUs, Python 3.11.7), so that
# times read as milliseconds there.
REFERENCE_SAMPLE_S = 0.00044


def _calibrate() -> None:
    # Fraction arithmetic, like the program's own work.
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)


class SpeedClock:
    """Samples the speed of this process's CPU while it is started."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # wall clock
        self.ends: list[float] = []
        self.durations: list[float] = []  # CPU time
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal_args) -> None:
        if len(self.ends) < len(self.starts):
            return  # the timer fired during a sample
        start, cpu = perf_counter(), thread_time()
        self.starts.append(start)
        _calibrate()
        self.durations.append(thread_time() - cpu)
        self.ends.append(perf_counter())

    def _slowness(self, i: int) -> float:
        """Sample i's duration over the reference, smoothed over its neighbours."""
        return statistics.median(self.durations[max(i - 1, 0):i + 2]) / REFERENCE_SAMPLE_S

    def work(self, t0: float, t1: float) -> float:
        """The seconds from t0 to t1 outside the samples, at the reference speed.

        Each piece between samples is divided by the slowness of the sample
        that ends it, the last piece by that of the latest sample before t1.
        """
        first = bisect.bisect_right(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)
        seconds, mark = 0.0, t0
        for i in range(first, last):
            seconds += (self.starts[i] - mark) / self._slowness(i)
            mark = self.ends[i]
        return seconds + (t1 - mark) / self._slowness(max(last - 1, 0))
