"""Reference speed: rescale wall times to one machine speed.

On a shared host the speed of every operation moves together by up to a
factor of two within minutes, as other tenants come and go.  The benchmark
therefore times a fixed reference kernel, which calls no qsu2 code, right
before every timed operation (and once after the last), and multiplies the
operation's wall time by REF_S / (median kernel time in a window around
it).  The result is the wall time the operation would take on a machine
where the kernel takes REF_S: a change to qsu2 moves it by the same factor as
wall time, while host drift, which slows the kernel as well, cancels.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_S = 0.005  # the kernel's time at the reference speed
WINDOW = 5  # kernel samples on each side of an operation
_SMALL = np.linspace(0.0, 1.0, 40_000)  # 0.3 MB: stays in a core's L2
_LARGE = np.linspace(0.0, 1.0, 1_000_000)  # 8 MB: beyond L2, in the shared L3
_OUT = np.empty_like(_LARGE)


def kernel_s() -> float:
    """Wall seconds of one run of the reference kernel, in three parts of
    similar length that stand for the three kinds of work in qsu2:
    interpreter work like the scalar layers, ufuncs over an L2-sized grid
    like the potential layers, and passes over an array that only the
    shared cache holds, like the dense matrices of the algebra layers."""
    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for i in range(6000):
        acc += math.sin(i * 1e-3) * 1.0001
        seen[i & 127] = acc
    y = np.sin(_SMALL) * np.cos(_SMALL) + _SMALL * _SMALL
    np.multiply(_LARGE, 1.0001, out=_OUT)
    acc += float(y.sum()) + float(_OUT.sum())
    return time.perf_counter() - t0


def factors(samples: list[float]) -> list[float]:
    """Per-operation scale factors, given kernel times taken before each of
    n operations and after the last (n + 1 samples)."""
    n = len(samples) - 1
    return [REF_S / statistics.median(samples[max(0, j - WINDOW + 1):j + WINDOW + 1]) for j in range(n)]
