"""Order statistics the benchmark reports: the median and the op-time tail."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

#: a tail percentile is reported only with at least this many samples beyond it
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> tuple[float, float, int] | None:
    """``(percentile, value, samples beyond)`` for the op-time tail, or None.

    The tail is the highest nearest-rank percentile that still has at least
    :data:`TAIL_BEYOND` samples above it.  It is omitted (None) when too
    few samples exist, or when that percentile would not be above the
    median, where it would say nothing the median does not.
    """
    n = len(values)
    rank = n - TAIL_BEYOND
    if rank < 1:
        return None
    percentile = 100.0 * rank / n
    if percentile <= 50.0:
        return None
    return percentile, sorted(values)[rank - 1], n - rank
