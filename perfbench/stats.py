"""Percentiles as the benchmark reports them."""

from __future__ import annotations

import math
from typing import Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile of ``n`` values."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below.

    Infinite values (failed requests) sort last, so a failure counts as
    missing every latency limit.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least 10 samples beyond it.

    With ``n`` samples, ``n - ceil(n * p / 100)`` lie above the
    nearest-rank ``p``-th percentile.  ``None`` when even the median
    has fewer than 10 beyond it.
    """
    best = None
    for pct in TAIL_CANDIDATES:
        beyond = n - _rank(pct, n)
        if beyond >= MIN_BEYOND:
            best = pct
    return best


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the middle two for an even count)."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0
