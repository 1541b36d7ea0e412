"""CPU time rescaled to a reference machine speed.

On a machine shared with other jobs, the speed of one CPU changes by up
to twofold from one second to the next, so the raw CPU time of an
operation spreads far more from run to run than any bound a benchmark
could gate on (see README.md, *Timing*). While an operation runs, SIGPROF
fires every ``PERIOD`` seconds of the process's CPU time and the handler
times a fixed reference kernel. The operation's CPU time, less that of
the samples taken inside it, is multiplied by ``REF_SECONDS`` / (mean
sample time): the time the operation would take at the speed at which the
kernel takes ``REF_SECONDS``. The kernel uses only numpy and the standard
library, so a change to the program under test leaves it as it is.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: CPU seconds between samples; a sample takes about 5% of that
PERIOD = 0.01
KERNEL_STEPS = 300
#: kernel time at the reference speed (a quiet spell of the machine
#: described in README.md)
REF_SECONDS = 4.5e-4
#: operations with fewer samples inside them use the latest this many
MIN_SAMPLES = 10

#: CPU time of the calling thread. The benchmark runs the program in its
#: only thread (run.py limits OpenBLAS to one), so this is the process's CPU
#: time; but while ITIMER_PROF is armed, Linux advances the process-wide
#: CPU clock only at scheduler ticks, and the thread's clock stays exact
cpu_clock = time.thread_time


def kernel() -> float:
    """A fixed piece of work of the kind the solvers do: a Python loop over
    a small numpy array and floats."""
    x = np.ones(6)
    acc = 0.0
    for i in range(KERNEL_STEPS):
        x = x * 0.999 + 0.001
        acc += math.sqrt(i) * float(x[2])
    return acc


def raw_timer(fn):
    """(fn(), CPU seconds it took)."""
    start = cpu_clock()
    out = fn()
    return out, cpu_clock() - start


class ScaledTimer:
    """Times calls in CPU seconds at the reference speed."""

    def __init__(self):
        #: (start, CPU seconds) of every kernel sample
        self.samples: list[tuple[float, float]] = []
        signal.signal(signal.SIGPROF, self._sample)
        for _ in range(MIN_SAMPLES):
            self._sample()

    def _sample(self, *_) -> None:
        start = cpu_clock()
        kernel()
        self.samples.append((start, cpu_clock() - start))

    def __call__(self, fn):
        """(fn(), its scaled CPU seconds); an exception from fn propagates."""
        n = len(self.samples)
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)
        start = cpu_clock()
        try:
            out = fn()
        finally:
            end = cpu_clock()
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        # a sample that fires between reading the clock and stopping the
        # timer lies outside [start, end] and is not subtracted
        inside = [d for t, d in self.samples[n:] if t + d <= end]
        return out, (end - start - sum(inside)) * self._scale(len(inside))

    def median_of_repeats(self, fn, min_repeats: int, min_seconds: float):
        """(median scaled CPU seconds of fn, number of calls): fn is called
        at least ``min_repeats`` times and for ``min_seconds`` of CPU time,
        with sampling on throughout, for calls too short to hold a sample."""
        n = len(self.samples)
        calls = []
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)
        try:
            first = cpu_clock()
            while len(calls) < min_repeats or cpu_clock() - first < min_seconds:
                start = cpu_clock()
                fn()
                calls.append((start, cpu_clock()))
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        samples = self.samples[n:]
        times = [end - start - sum(d for t, d in samples if start <= t and t + d <= end)
                 for start, end in calls]
        return statistics.median(times) * self._scale(len(samples)), len(calls)

    def _scale(self, n_inside: int) -> float:
        """REF_SECONDS over the mean of the samples taken during the timed
        work, or of the latest MIN_SAMPLES if it held fewer."""
        ref = [d for _, d in self.samples[-max(MIN_SAMPLES, n_inside):]]
        return REF_SECONDS / statistics.fmean(ref)
