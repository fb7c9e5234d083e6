"""Timings in seconds at a fixed machine speed.

The shared virtual machine this benchmark was built on runs anywhere between
full speed and half of it: the level moves within a second and can stay low
for minutes, so plain wall-clock times of the same code moved by 30 % from
one set of runs to the next.  `Clock` samples the machine's speed while the
benchmark runs: a timer signal every `PERIOD_S` of the process's CPU time
runs `reference`, a fixed
pure-Python loop of the operations polyclinch spends its time in (`Fraction`
arithmetic with growing denominators, dictionary updates), and records how
long it took.  The loop is the benchmark's own and does not touch the
package, so a change to polyclinch cannot change it.

An interval's time is the work done in it, in seconds at the speed at which
`reference` takes `REFERENCE_S` (about full speed on a 2.1 GHz machine with
Python 3.11): the process's CPU time in it, less the samples' own, times the
mean of `REFERENCE_S / sample` over the samples taken inside it and within
`WINDOW_S` of either end.  All of these are CPU times of the benchmark's
one thread, so time it spends waiting for a processor (another process on
its CPU, or the hypervisor running another machine) counts for nothing.
Where that clock does not resolve a reference run, `Clock` falls back to
wall time.  On the benchmark's
baseline machine this cut the spread of a pass's time over passes from
6-10 % to 1-3 %.
"""

from __future__ import annotations

import gc
import signal
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter, thread_time

PERIOD_S = 0.01
# Single samples are noisy and short operations hold only a few of them; the
# speed moves on a scale of tenths of a second.
WINDOW_S = 0.02
REFERENCE_S = 200e-6


def reference():
    x = Fraction(1, 3)
    for k in range(1, 50):
        x = x * Fraction(k + 1, k + 2) + Fraction(1, k + 3)
    table = {}
    for k in range(200):
        table[k & 31] = table.get(k & 31, 0) + k
    return x, table


def cpu_clock():
    """thread_time, if it follows a reference run as the wall clock does.

    On the baseline machine the process-wide CPU clock advanced by a tenth
    of a reference run's time, or not at all, while the thread's was exact.
    """
    for _ in range(5):
        wall, cpu = perf_counter(), thread_time()
        reference()
        cpu, wall = thread_time() - cpu, perf_counter() - wall
        if abs(cpu - wall) < 0.1 * wall:
            return thread_time
    return perf_counter


class Clock:
    """Speed samples taken while the block runs; `mark`/`seconds` time intervals."""

    def __init__(self):
        self.now = cpu_clock()
        self.samples = array("d")        # CPU time of each reference run, in s
        self.times = array("d")          # CPU time when each run ended

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()                     # a collection of the program's heap is not speed
        start = self.now()
        reference()
        end = self.now()
        self.samples.append(end - start)
        self.times.append(end)
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self):
        return self.now(), len(self.samples)

    def interval(self, mark):
        """The interval from `mark` to now, to be converted by `seconds` later,
        once the sample after it has been taken."""
        return mark + self.mark()

    def seconds(self, interval) -> float:
        start, first, end, last = interval
        busy = end - start - sum(self.samples[first:last])
        around = self.samples[bisect_left(self.times, start - WINDOW_S):
                              bisect_right(self.times, end + WINDOW_S)]
        if not around:
            raise RuntimeError("no speed sample near the interval")
        return busy * sum(REFERENCE_S / s for s in around) / len(around)

    def slowdown(self) -> float:
        """Mean sample over REFERENCE_S: how far below full speed the run went."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S
