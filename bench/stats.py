"""Order statistics for the benchmark's latency reports."""

from __future__ import annotations

import math
from fractions import Fraction

# Percentiles a report may use, lowest first.
LADDER = ("50", "90", "95", "99", "99.9")


def _rank(n: int, q: str) -> int:
    """1-based nearest rank of percentile q among n samples."""
    return max(1, math.ceil(Fraction(q) * n / 100))


def tail_percentile(n: int) -> str | None:
    """Highest percentile in LADDER with at least ten samples beyond it.

    A sample lies beyond the percentile when its rank is above the
    percentile's nearest rank.  None when even the median lacks ten.
    """
    best = None
    for q in LADDER:
        if n - _rank(n, q) >= 10:
            best = q
    return best


def percentile(values, q: str) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), q) - 1]
