"""Host-speed calibration: a fixed kernel timed next to every measurement.

The benchmark runs on a shared host whose speed drifts by up to 1.7x
over minutes, as neighbours come and go; every wall and CPU time moves
with it, the same on every workload and on either vCPU.  On a 2-vCPU
Intel Xeon guest, the medians of consecutive 24 s windows of
back-to-back operations had an interquartile spread of 15%
(``sparse-serial``, 360 s) and 23% (``batch-small``, 300 s) of their
median; divided by the kernel's time, 5% and 4%.

:class:`HostSpeed` times :func:`kernel` (bigint AND and popcount, dict
updates keyed by tuples: the kind of work the program does, but none
of its code) once before the first measurement and once after each
one.  A measurement is rescaled by ``NOMINAL_KERNEL_S`` over the mean
of the two kernel samples either side of it, raised to
``SENSITIVITY``, so it reads in seconds on a host where the kernel
takes ``NOMINAL_KERNEL_S``.  The kernel runs no program code, so a
change to the program moves a rescaled time by the same share as a raw
one.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import List

#: The kernel's median, in seconds, on the host the benchmark was tuned
#: on (2 vCPUs of an Intel Xeon); a rescaled time equals the raw one on
#: a host that runs the kernel this fast.
NOMINAL_KERNEL_S = 0.025

#: Operations slow down less than the kernel when the host does: their
#: time goes as the kernel's to this power.  Fitted over 80 runs (ten
#: seeds of each workload, twice): rescaling by the full kernel ratio
#: left interquartile spreads of 5-14% of the median, by its 0.75th
#: power 3-8%, against 20-35% for raw times.
SENSITIVITY = 0.75

_BITS = 3000
_ROWS = 2000


def kernel() -> int:
    """A fixed, deterministic piece of work; returns a checksum."""
    mask = (1 << _BITS) - 1
    rows = [(1 << (i % _BITS)) | (i * 2654435761 & mask) for i in range(_ROWS)]
    counts: dict = {}
    total = 0
    for i in range(25 * _ROWS):
        total += (rows[i % _ROWS] & rows[(i * 7) % _ROWS]).bit_count()
        key = (i % 997, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return total + len(counts)


def kernel_seconds(parallel: int = 1) -> float:
    """The kernel's wall time, with ``parallel - 1`` forked copies of it
    running alongside, and the cyclic collector off: a collection would
    walk the program's heap and tie the sample to it.

    An operation that keeps two processes busy competes with itself for
    the host's cores and slows less than a lone process when neighbours
    come and go; a sample taken under the same load tracks it.
    """
    enabled = gc.isenabled()
    gc.disable()
    children: List[int] = []
    try:
        for _ in range(parallel - 1):
            pid = os.fork()
            if pid == 0:
                try:
                    kernel()  # twice: outlasts the timed copy
                    kernel()
                finally:
                    os._exit(0)
            children.append(pid)
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        for pid in children:
            os.waitpid(pid, 0)
        if enabled:
            gc.enable()


class HostSpeed:
    """Kernel samples taken between measurements of one run, each under
    as many concurrent kernels as the measured work keeps busy."""

    def __init__(self, parallel: int = 1) -> None:
        self.parallel = parallel
        self.samples: List[float] = [kernel_seconds(parallel)]

    def factor(self) -> float:
        """Call right after a measurement: what to multiply it by."""
        before = self.samples[-1]
        self.samples.append(kernel_seconds(self.parallel))
        return (NOMINAL_KERNEL_S / ((before + self.samples[-1]) / 2.0)) ** SENSITIVITY

    def median_kernel_s(self) -> float:
        return statistics.median(self.samples)
