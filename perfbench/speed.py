"""Interpreter-speed track, for timing on a host whose speed drifts.

On a shared host a vCPU's speed can change by half within seconds, as other
tenants load the physical core, and a run of tens of seconds cannot average
that out.  :class:`SpeedTrack` samples the speed while the workload runs: a
``SIGALRM`` timer runs a fixed reference loop, independent of fairplay,
every ``INTERVAL_S`` seconds in the benchmark's own thread.  A span of the
run is then rescaled to the reference speed::

    reference seconds = (measured seconds - sampler time) * REF_S / loop time

where the loop time is the mean of the samples taken during the span or
within ``WINDOW_S`` of it.  The sampler costs 2-4% of the run, and its own
time is taken out of each span.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Reference loop duration on an unloaded core of the machine the benchmark
# was defined on (Xeon Sapphire Rapids, CPython 3.11).  Only ratios between
# runs matter; this constant makes reported seconds read like that core's.
REF_S = 0.001
REF_ITERS = 5000
INTERVAL_S = 0.05
WINDOW_S = 0.05


def reference_loop() -> int:
    """A fixed mix of interpreter work: integer arithmetic, list indexing,
    tuple building and dict stores."""
    acc = 0
    data = list(range(64))
    table = {}
    for i in range(REF_ITERS):
        x = data[i & 63] * 3 + i
        acc ^= x
        table[x & 127] = acc
        pair = (x, acc & 7)
        acc += pair[1]
    return acc


class SpeedTrack:
    def __init__(self):
        self.starts: list[float] = []  # sample start times, ascending
        self.loops: list[float] = []  # reference loop time of each sample
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.loops.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedTrack":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def rescale(self, start: float, end: float) -> float:
        """Reference seconds for the span [start, end] of this track: the
        span less the sampler's time in it, at the mean loop time of the
        samples within WINDOW_S of it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        stolen = sum(self.loops[lo:hi])
        near = self.loops[bisect.bisect_left(self.starts, start - WINDOW_S):
                          bisect.bisect_left(self.starts, end + WINDOW_S)]
        loop = statistics.fmean(near or self.loops[max(lo - 1, 0):lo + 1])
        return (end - start - stolen) * REF_S / loop
