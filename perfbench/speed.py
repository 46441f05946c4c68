"""Host-speed sampling, so that times taken minutes apart can be compared.

On a shared host the speed of one core changes by a factor of two or more
within seconds, as other tenants come and go, so a wall time alone is
mostly a reading of the neighbours.  While the benchmark runs,
`SpeedSampler` times a fixed kernel, which never calls chencensor, every
INTERVAL_S seconds from a SIGALRM handler on the same core.  An operation's
reference seconds are its wall seconds times REFERENCE_S over the mean
kernel time sampled around it: the time it would have taken on a core that
runs the kernel in REFERENCE_S.  The sampler's own time is taken out of the
wall time.
"""
from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

import numpy as np

KERNEL_ITERATIONS = 150
INTERVAL_S = 0.1
MIN_SAMPLES = 5
# about the median kernel time on the 2-core x86_64 host the benchmark was defined on
REFERENCE_S = 1.0e-3

_X = np.linspace(0.1, 2.0, 30)


def kernel() -> float:
    """CPU seconds taken by a fixed mix of interpreter and small-array work.

    CPU time, not wall time: while a CLI child runs on the same core, the
    scheduler may switch to the child in the middle of the kernel, and that
    wait says nothing about the speed of the core.
    """
    t0 = time.thread_time()
    acc = 0.0
    for i in range(KERNEL_ITERATIONS):
        acc += float(np.expm1(np.exp(0.5 * np.log(_X))).sum()) + (i * 0.5) ** 0.5
    return time.thread_time() - t0


def pin_to_one_core() -> None:
    """Keep this process and its children on one core, where the sampler runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedSampler:
    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.at.append(time.perf_counter())
        self.took.append(kernel())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def own_seconds(self, t0: float, t1: float) -> float:
        """Time the sampler itself took between t0 and t1."""
        i, j = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        return sum(self.took[i:j])

    def kernel_seconds(self, t0: float, t1: float) -> float:
        """Mean kernel time over the samples in [t0, t1], widened to MIN_SAMPLES."""
        i, j = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        while j - i < MIN_SAMPLES and (i > 0 or j < len(self.at)):
            if i > 0:
                i -= 1
            if j - i < MIN_SAMPLES and j < len(self.at):
                j += 1
        if i == j:
            raise RuntimeError("no speed samples were taken")
        return statistics.fmean(self.took[i:j])

    def reference_seconds(self, seconds: float, t0: float, t1: float) -> float:
        return seconds * REFERENCE_S / self.kernel_seconds(t0, t1)
