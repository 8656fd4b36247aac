"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares a few vCPUs of a busy host.  Other tenants slow every
instruction stream on it by up to about 1.7x, in phases that last from a
second to several minutes, so the same pass takes very different wall times
from one minute to the next.  The kernel below is timed right before and
right after each timed unit of a workload; a unit's wall time divided by the
kernel's (the mean of the two around it) is the unit's cost in kernel runs,
which the host's phase hardly changes.  Multiplied by the fixed
:data:`REF_KERNEL_S` it gives a time scale; it is not a time anyone
observes, since between units the kernel runs slower than back to back.

The kernel does what fdrelay's inner loops do: batched 25x25 complex solves
(n_r = 5 gives n_r^2 = 25) and interpreted Python.  It never changes with
the program under test, so a faster program lowers the ratio and nothing
else does.  Make a kernel only after BLAS threads are pinned: numpy is
imported then.
"""

from __future__ import annotations

import statistics
import time

# Seconds per kernel run on the scaled time axis: the kernel's fastest
# back-to-back run on a 2-vCPU Intel Xeon (Python 3.11, numpy 2.4, one BLAS
# thread).  A fixed constant, so scaled times of two commits compare.
REF_KERNEL_S = 0.004

_BATCH, _SIZE, _REPEATS, _LOOP = 64, 25, 6, 2500
TIMED_RUNS = 3


class ReferenceKernel:
    """Callable that times the kernel and returns the wall time of one run in seconds."""

    def __init__(self):
        import numpy as np

        self.solve = np.linalg.solve
        rng = np.random.default_rng(20160627)
        shape = (_BATCH, _SIZE, _SIZE)
        self.a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.a += 2 * _SIZE * np.eye(_SIZE)  # well conditioned
        self.b = rng.standard_normal((_BATCH, _SIZE, 1)) + 0j
        self._run()  # loads LAPACK code paths

    def _run(self):
        for _ in range(_REPEATS):
            self.solve(self.a, self.b)
            sum(i * i for i in range(_LOOP))

    def __call__(self) -> float:
        """Median wall time of TIMED_RUNS kernel runs, after one untimed run.

        The untimed run refills the caches the workload unit just used, so the
        timed runs see the host's speed and not the unit's memory traffic; the
        median ignores one run hit by a burst shorter than the kernel.
        """
        self._run()
        times = []
        for _ in range(TIMED_RUNS):
            start = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
