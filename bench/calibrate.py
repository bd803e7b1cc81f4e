"""Machine-speed calibration for the benchmark's gated timings.

The shared machines this benchmark runs on change speed by a quarter and
more over minutes, the same for every process on them.  A pass therefore
times fixed kernels next to its set-up and between its ops, and scales
each timing by REFERENCE_S over the kernel time measured around it: the
result is the time the work would take on a machine running each kernel in
REFERENCE_S.  The kernels use nothing of the library, so a change to the
library moves the scaled timings as much as the raw ones.  ``python`` is
plain Python with small-integer arithmetic, as in the library's F_p
polynomial code; ``fraction`` sums rationals with growing denominators, as
in the certifier's slopes and valuations of large integers; ``numpy`` is a
sliding-window maximum, as in the window scan of the reference tables.  A
workload weighs them by the share of its time spent in that kind of code.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.004   # time of each kernel at the reference speed
SAMPLES = 5
PYTHON = (("python", 1.0),)
P = 10007
A = tuple(range(1, 40))
B = tuple(range(3, 43))
_array = []


def python_kernel() -> list[int]:
    """Schoolbook products of two fixed polynomials modulo P."""
    out = []
    for _ in range(16):
        out = [0] * (len(A) + len(B) - 1)
        for i, x in enumerate(A):
            for j, y in enumerate(B):
                out[i + j] = (out[i + j] + x * y) % P
    return out


def fraction_kernel() -> Fraction:
    """Harmonic sums of 300 terms, three times."""
    total = Fraction(0)
    for _ in range(3):
        total = Fraction(0)
        for i in range(1, 301):
            total += Fraction(1, i)
    return total


def numpy_kernel() -> int:
    """Sliding-window maxima over a fixed array of 2**16 int64."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    if not _array:
        _array.append(np.arange(1 << 16, dtype=np.int64) * 7919 % P)
    return int(sliding_window_view(_array[0], 48).max(axis=1).sum())


KERNELS = {"python": python_kernel, "fraction": fraction_kernel, "numpy": numpy_kernel}


def sample(weights=PYTHON) -> float:
    """Sum over (kernel, weight) of weight times the kernel's median time
    over SAMPLES runs, in seconds; the weights sum to 1."""
    total = 0.0
    for name, weight in weights:
        times = []
        for _ in range(SAMPLES):
            start = time.perf_counter()
            KERNELS[name]()
            times.append(time.perf_counter() - start)
        total += weight * sorted(times)[SAMPLES // 2]
    return total


def scale(seconds: float, *samples: float) -> float:
    """`seconds` measured next to kernel `samples`, at the reference speed."""
    return seconds * REFERENCE_S * len(samples) / sum(samples)
