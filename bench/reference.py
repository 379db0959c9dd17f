"""Host-speed sampling, so that the benchmark's times do not drift with the host.

The benchmark's host shares its cores: its speed drifts by up to 2x over
seconds to minutes, and every wall time drifts with it.  A
:class:`SpeedSampler` therefore interrupts the workload every
``INTERVAL_S`` (SIGALRM, handled between bytecodes) and times one *burst*
of a fixed pure-Python, standard-library computation.  No hecketree code
runs in a burst, so no change to the program can speed one up.  The time
spent in the handler is taken off the workload's clock, and every reported
time is scaled to a host on which one burst takes ``NOMINAL_BURST_S``::

    scaled = program_clock_time * NOMINAL_BURST_S / mean_burst_time_around_it

The burst mixes what hecketree's hot paths do: dict updates keyed by tuples,
small-int arithmetic, Fraction accumulation and a sort.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

#: one burst on the 2-vCPU host the bounds were calibrated on, at its usual speed
NOMINAL_BURST_S = 1.5e-3
CALLS_PER_BURST = 5
#: wall time from the end of one burst to the start of the next
INTERVAL_S = 0.025
#: bursts this close to an operation also estimate the speed it ran at
WINDOW_S = 0.1


def reference() -> tuple:
    acc: dict = {}
    total = Fraction(0)
    for i in range(300):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + i * i % 11
        if i % 10 == 0:
            total += Fraction(i + 1, i % 7 + 2)
    return len(sorted(acc.items())), total


def burst() -> float:
    """Seconds taken by one burst of the reference computation.

    One untimed call first brings the computation's code and data back into
    the CPU caches, so that the workload's own memory use, which evicts
    them, hardly shows in the burst time.
    """
    reference()
    start = time.perf_counter()
    for _ in range(CALLS_PER_BURST):
        reference()
    return time.perf_counter() - start


class SpeedSampler:
    """Times one burst every INTERVAL_S of wall time, from a SIGALRM handler.

    :meth:`clock` is ``time.perf_counter`` minus the time spent in the
    handler; burst samples are stamped with it.
    """

    def __init__(self):
        self.samples: list = []  # burst seconds, in the order taken
        self.times: list = []  # clock() at the start of each
        self.stolen = 0.0
        self.running = False
        self._previous = None

    def start(self) -> "SpeedSampler":
        self.running = True
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        # signal.signal runs a handler still pending first; it returns at once
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # stopped within the first interval
            self.times.append(self.clock())
            self.samples.append(burst())

    def _handle(self, signum, frame) -> None:
        if not self.running:
            return
        enter = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection here would be the workload's, not the burst's
        try:
            taken = burst()
        finally:
            if collecting:
                gc.enable()
        self.times.append(enter - self.stolen)
        self.samples.append(taken)
        self.stolen += time.perf_counter() - enter
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def clock(self) -> float:
        """Seconds on a clock that stops while a burst runs."""
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if stolen == self.stolen:
                return now - stolen

    def burst_between(self, start: float, end: float) -> float:
        """Mean burst time within WINDOW_S of the clock interval [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no burst so close: take the nearest one
            lo = min(lo, len(self.samples) - 1)
            hi = lo + 1
        return statistics.fmean(self.samples[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """``end - start`` as it would read on a host where one burst takes NOMINAL_BURST_S."""
        return (end - start) * NOMINAL_BURST_S / self.burst_between(start, end)
