"""The machine's speed, sampled through the run by a fixed reference slice.

On a shared virtual machine the same pure-Python code runs up to twice as
fast in some seconds as in others, and from one process to the next.  While
a run is timed, a SIGALRM every INTERVAL_S interrupts whatever is running,
the program's calls included, and times a fixed slice of the benchmark's own
code (frozenset subset tests and dict lookups on small prebuilt operands, the
kind of work the program does, allocating nothing the collector tracks).
Each call's wall time, less the slices taken inside it, is then scaled to a
machine on which the slice takes REFERENCE_S:

    time at reference speed = (wall time - slices inside) * REFERENCE_S
                              / mean slice time during the call

The slice is the benchmark's, not the program's, so a change to the program
moves the scaled time by the same share as the wall time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# The slice's time on the 2-vCPU virtual machine the benchmark was tuned on
# (Python 3.11) in a typical stretch, so scaled times read close to wall
# times there.
REFERENCE_S = 0.0004
INTERVAL_S = 0.025  # one slice per this much wall time
PAD_S = 0.1  # slices this near a call also give its speed


class SpeedLog:
    """Samples the slice while active (a context manager); scales call times by it."""

    def __init__(self) -> None:
        self.at: list[float] = []  # when each slice started
        self.took: list[float] = []  # how long it took
        keys = [frozenset((i, i >> 3, i & 7)) for i in range(100)]
        self._keys = keys
        self._table = dict.fromkeys(keys, 0)
        self._pairs = [(frozenset(range(i % 7, i % 7 + 4)), frozenset(range(i % 5, i % 5 + 6)))
                       for i in range(50)]
        self._previous = None

    def reference_slice(self) -> None:
        """A fixed piece of work."""
        table, keys, pairs = self._table, self._keys, self._pairs
        for _ in range(30):
            for a, b in pairs:
                a <= b
                a.isdisjoint(b)
                a in table
            for k in keys:
                table[k]

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.reference_slice()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def __enter__(self) -> SpeedLog:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def net(self, start: float, end: float) -> float:
        """Wall time of [start, end] less the slices taken inside it."""
        inside = self.took[bisect.bisect_left(self.at, start):bisect.bisect_right(self.at, end)]
        return end - start - sum(inside)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean slice time within PAD_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - PAD_S)
        hi = bisect.bisect_right(self.at, end + PAD_S)
        if lo >= hi:
            raise ValueError("no reference slice near the interval")
        return REFERENCE_S / statistics.fmean(self.took[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Wall time of [start, end] at reference speed, less the slices in it."""
        return self.net(start, end) * self.factor(start, end)
