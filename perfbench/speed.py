"""Machine-speed calibration for timings on a shared host.

On a small shared virtual machine the same pure-Python work can take from
0.6x to 1.3x its usual time, in phases from under a second to minutes, so raw
wall times of one run differ from the next by 20-30%.  A fixed calibration
kernel (stdlib only, never the package under test) is timed every
:data:`PERIOD_S` from a ``SIGALRM`` handler while work runs, so the samples
interleave with the work even inside one long call.  A timed interval is then

* cleared of the time the handler itself took, and
* cut at the samples inside it, each piece scaled by
  ``REFERENCE_S / (time of the sample that starts the piece)``,

which gives the time the work would take at the reference machine speed.
The speed changes within tenths of a second, so the latest sample tracks it
better than a median over a window: over ten whole passes of the cyclic
sweep, the spread of the scaled times was 0.023 this way, 0.061 with the
median of the nearest 50 samples, and 0.15 unscaled.  A single sample is off
by up to 30%, but a long interval spans hundreds of pieces, and an item's
time is a median over passes that meet different samples.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.01
# Median time of one kernel call on the machine that defined the benchmark:
# a 2-vCPU Intel Xeon virtual machine at 2.1 GHz, Python 3.11.7.
REFERENCE_S = 1.75e-4


def kernel() -> int:
    """Fraction arithmetic, small dicts, strings and lists, like the package."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 50):
        acc += Fraction(1, i)
        table[str(i)] = (acc.numerator % 7, [i, i])
    return len(table)


class SpeedProbe:
    """Samples the kernel every ``period`` seconds while active (a context
    manager)."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._spent = [0.0]
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # A collection of the work's heap must not land inside a sample.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.durations:  # the work ended before the first sample
            self._sample(None, None)
        self._spent = [0.0, *itertools.accumulate(self.durations)]

    def work(self, t0: float, t1: float) -> float:
        """Time in [t0, t1] less the time spent sampling (call after exiting)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return (t1 - t0) - (self._spent[hi] - self._spent[lo])

    def scaled(self, t0: float, t1: float) -> float:
        """Work time in [t0, t1] at reference speed (call after exiting).

        The interval is cut at the samples inside it; each piece is scaled
        by the sample that starts it, the first by the sample before t0.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        edges = [t0, *self.starts[lo:hi], t1]
        last = len(self.durations) - 1
        return sum(self.work(a, b) * REFERENCE_S / self.durations[min(max(k, 0), last)]
                   for k, (a, b) in enumerate(zip(edges, edges[1:]), lo - 1))
