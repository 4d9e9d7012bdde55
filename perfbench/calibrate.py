"""Machine-speed calibration, so runs on a shared host can be compared.

On a virtual machine whose cores are shared with other tenants, the same
request runs up to about 40% slower for seconds to minutes at a time, in
wall and in CPU time alike.  A short fixed kernel, timed between requests,
slows down with it, somewhat more than the program does.  The benchmark
scales each request time by (``REFERENCE_S`` / median of the kernel samples
taken around it) ** ``EXPONENT``, which gives seconds at the reference speed.

The kernel mixes the program's kinds of work: Fraction and dict arithmetic
as in the exact algebra, complex numpy powers as in the kernels, and JSON
encoding as in the tables.  It runs with the garbage collector off, so the
size of the program's heap does not change its time.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from fractions import Fraction

import numpy as np

# Median kernel time on the reference machine (2-core Xeon VM, Python
# 3.11, numpy 2.4) while its host was quiet.
REFERENCE_S = 0.0022
# How far the program's time follows the kernel's: when the kernel ran 1.6x
# faster the requests ran about 1.4x faster.  0.75 gave the smallest run-to-run
# spread over thirty runs (ten per workload) on the reference machine; 1.0
# left 13% on reproduce, 0.75 at most 7.4% on any workload.
EXPONENT = 0.75
WINDOW = 8  # samples on each side of a request

_POINTS = np.exp(1j * np.linspace(0.1, 3.0, 3000)) * 0.7 + 1.0
_FLOATS = [i * 0.123456789 for i in range(2000)]


def _kernel() -> float:
    total = Fraction(0)
    cells: dict = {}
    for i in range(1, 120):
        total += Fraction(i, i + 3)
        key = (i % 7, i % 5)
        cells[key] = cells.get(key, 0) + i
    values = np.exp(-1.5 * np.log(_POINTS)) * (1.0 - _POINTS ** 3)
    json.dumps(_FLOATS)
    return float(np.sum(values.real)) + float(total)


def sample() -> float:
    """Seconds one kernel run takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Scale from measured seconds to reference seconds."""
    return (REFERENCE_S / statistics.median(samples)) ** EXPONENT


def local_factors(samples: list, count: int) -> list:
    """Scale for each of ``count`` requests, where ``samples[i]`` was taken
    just before request i and ``samples[count]`` after the last."""
    return [factor(samples[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(count)]
