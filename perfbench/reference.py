"""Reference kernel for scaling times to a nominal machine speed.

On a virtual machine that shares its CPUs with other tenants (such as the
2-vCPU machine of the baseline in NOTES.md), speed drifts by 15-30% over
minutes while the work done stays identical (same solver iterations).  Every op is therefore timed next to
this fixed kernel, which uses NumPy and SciPy but nothing of the program
under test, and reported times are scaled to a machine on which the kernel
takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / median(kernel times nearest the op)

Raw times are kept in the full result file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

NOMINAL_S = 0.004
HALF_WINDOW = 3
_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.standard_normal((50, 50)) + 10.0 * np.eye(50)
_VECTOR = _RNG.standard_normal(50)
_FACTOR = lu_factor(_MATRIX)


def kernel():
    """Small solves, elementwise maps and Python-level control flow, ~4 ms."""
    x = _VECTOR
    total = 0.0
    for _ in range(150):
        x = lu_solve(_FACTOR, x)
        x = np.sign(x) * np.maximum(np.abs(x) - 0.01, 0.0) + _VECTOR
        total += float(np.linalg.norm(x))
    return total


def time_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale_factors(kernel_times):
    """Factor ``NOMINAL_S / kernel time`` for op ``i``, the kernel time being
    the median of the ``2 * HALF_WINDOW`` runs nearest the op: those timed
    just before ops ``i - HALF_WINDOW + 1 .. i`` and just after ops
    ``i .. i + HALF_WINDOW - 1`` (``kernel_times`` holds one run before each
    op and one after the last).

    A shared machine switches between fast and slow phases within a second,
    so the kernel next to an op tracks its speed better than any run-wide
    average: on nightly_rebalance this cut the within-run interquartile
    range of op latency from about 45% to about 14%.  A single 4 ms kernel
    run is itself sometimes hit by a pause; the median of a few nearby runs
    ignores that.  On one set of ten runs per workload it cut the widest
    run-to-run spread, of p90 on nightly_rebalance, from 16% to 11%; on a
    second, noisier set it made no clear difference.
    """
    n = len(kernel_times) - 1
    return [NOMINAL_S / statistics.median(
                kernel_times[max(0, i - HALF_WINDOW + 1):min(n, i + HALF_WINDOW) + 1])
            for i in range(n)]
