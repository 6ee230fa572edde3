"""Host speed during a timed region, from a reference kernel sampled in-thread.

The CPU speed of a shared virtual machine can swing by half within seconds
as neighbours load the host; the guest sees it as slower execution, not as
stolen time.  ``HostSpeed`` samples a fixed numpy-and-Python kernel every
``INTERVAL_S`` of wall time from a ``SIGALRM`` handler, which runs in the
main thread between bytecodes, and times each sample by thread CPU time, so
waiting on pool workers does not count.  ``factor`` is the mean sample time
over ``REFERENCE_KERNEL_S``: above 1 the host ran slower than the reference.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# Kernel time on an unloaded core of the machine the first figures came from
# (Intel Xeon, 2 vCPUs); it only sets the unit of the normalised metrics.
REFERENCE_KERNEL_S = 0.0005

_RNG = np.random.default_rng(0)
_Z = _RNG.integers(0, 5, size=30)
_NB = _RNG.integers(0, 30, size=15)
_VALS = _RNG.random(15)
_LINK = _RNG.random((5, 5))


def kernel(reps: int = 30) -> float:
    """Small bincount / matvec / cumsum steps, the shape of a Gibbs update."""
    acc = 0.0
    for _ in range(reps):
        r1 = np.bincount(_Z[_NB], weights=_VALS, minlength=5)
        rt = np.bincount(_Z[_NB], minlength=5).astype(np.float64)
        w = _LINK @ r1 + _LINK @ (rt - r1)
        w = np.exp(w - w.max())
        acc += float(np.searchsorted(np.cumsum(w / w.sum()), 0.5))
    return acc


def _timed_kernel() -> float:
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def calibrate(samples: int = 20) -> float:
    """Host speed factor from back-to-back kernel runs, for short regions."""
    return statistics.fmean(_timed_kernel() for _ in range(samples)) / REFERENCE_KERNEL_S


class HostSpeed:
    """Context manager that samples the reference kernel while it is open."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        self.samples.append(_timed_kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def factor(self) -> float:
        if not self.samples:
            return 1.0
        return statistics.fmean(self.samples) / REFERENCE_KERNEL_S
