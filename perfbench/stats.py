"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile that still has ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile, sample_count)``: the ``(n - 10)``-th
    smallest of ``n`` samples, which is the ``100 * (n - 10) / n``
    percentile.  ``None`` when there are ten samples or fewer, because
    then no sample has ten beyond it.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    ordered = sorted(values)
    return float(ordered[rank - 1]), 100.0 * rank / n, n

