"""Host-speed adjustment of measured times.

On a shared host, outside load can slow this process by 40-50% for
seconds to minutes at a time (a fixed pure-Python loop on a 2-vCPU
Intel Xeon VM alternated between ~22 ms and ~32 ms). Raw wall times of
two runs minutes apart then differ by more than any useful regression
bound. So the benchmark also times a fixed reference loop around and
during each measured block, and reports the block's time at the
reference speed:

    adjusted = (wall - time spent in the loop) * REFERENCE_LOOP_S / median loop time

The loop runs a few times just before and after the block and, when
``during`` is set, from a SIGALRM handler every INTERVAL_S inside it, so
it sees the same host state as the block. A faster program lowers the
adjusted time exactly as it lowers wall time; a busier host raises both
the wall time and the loop time, and cancels out.
"""

import contextlib
import signal
import statistics
from time import perf_counter

REFERENCE_LOOP_S = 2.5e-4  # the loop's uncontended time on the host above
INTERVAL_S = 0.05
BRACKET = 5  # loop runs just before and just after each block


def _reference_loop():
    total = 0
    for i in range(4000):
        total += i * i % 7
    return total


class Timing:
    """The times of one block: ``wall``, less any reference loops run
    inside it, and ``seconds``, that time host-adjusted when the clock
    adjusts, else equal to ``wall``."""

    wall = 0.0
    seconds = 0.0
    speed = 1.0  # REFERENCE_LOOP_S over the median loop time


class Clock:
    """Times blocks. ``adjust=False`` gives plain wall time (traced runs,
    whose spans must not hold loop time); ``during=False`` samples only
    around the block, for work done by a child process."""

    def __init__(self, adjust=True, during=True):
        self.adjust, self.during = adjust, during
        self._loops = []
        self._inside = False
        self._inside_s = 0.0

    def _sample(self, *_):
        start = perf_counter()
        _reference_loop()
        took = perf_counter() - start
        self._loops.append(took)
        if self._inside:
            self._inside_s += took

    @contextlib.contextmanager
    def time(self):
        """Time the block; the Timing is filled in when it exits."""
        timing = Timing()
        if not self.adjust:
            start = perf_counter()
            try:
                yield timing
            finally:
                timing.wall = timing.seconds = perf_counter() - start
            return
        self._loops, self._inside_s = [], 0.0
        for _ in range(BRACKET):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample) if self.during else None
        self._inside = True
        start = perf_counter()
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield timing
        finally:
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            timing.wall = perf_counter() - start - self._inside_s
            self._inside = False
            if self.during:
                signal.signal(signal.SIGALRM, previous)
            for _ in range(BRACKET):
                self._sample()
            timing.speed = REFERENCE_LOOP_S / statistics.median(self._loops)
            timing.seconds = timing.wall * timing.speed
