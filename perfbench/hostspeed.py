"""Host speed: a fixed kernel, independent of dimerdet, timed during a run.

The benchmark runs on shared virtual machines whose speed drifts by up to
40 % within a minute.  Timed next to plane-scan's items, this kernel slows
down with them: over 3 s windows the median item latency moved by 25 % while
its ratio to the kernel's median time moved by 2 to 4 %.  A plane-scan run
therefore scales its timings to a reference speed:

    speed = REFERENCE_MS / median kernel time in the run

and a time ``x`` is reported as ``x * speed``, a rate ``r`` as ``r / speed``.
The kernel shares no code with dimerdet, uses no BLAS and works on one small
array, so a change to the program does not move it.  ``workloads.SCALED``
says which workloads are scaled and why the others are not.  The run record
keeps the raw values and ``speed``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: median kernel time on the reference host (2 vCPUs, x86-64, Python 3.11,
#: numpy 2.4); there ``speed`` is about 1
REFERENCE_MS = 0.4

_LINE = np.arange(512.0)


def _kernel() -> float:
    acc = 0.0
    for i in range(2000):
        acc += (i % 7) * 0.5
    for _ in range(20):
        acc += float(np.sin(_LINE).sum())
    return acc


def sample_ms() -> float:
    """Time one call of the kernel, in ms: a Python loop and small numpy calls."""
    start = time.perf_counter()
    _kernel()
    return (time.perf_counter() - start) * 1e3


def speed(times_ms: list[float]) -> float:
    """Host speed relative to the reference, from kernel times in ms; 1 when
    the run took no samples (a workload that is not scaled)."""
    return REFERENCE_MS / statistics.median(times_ms) if times_ms else 1.0


_kernel()  # first numpy calls pay one-off costs; keep them out of the samples
