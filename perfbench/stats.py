"""Small statistics helpers shared by the workloads and the tracer."""

from __future__ import annotations

import math
from array import array
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES: Tuple[float, ...] = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; otherwise the sample cannot support it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of an already sorted sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[float], int]:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond it.

    Returns ``(percentile, value, sample count)``; the first two are
    ``None`` when even the median lacks ``MIN_BEYOND`` samples above it.
    """
    count = len(values)
    ordered = sorted(values)
    for pct in TAIL_CANDIDATES:
        # Samples ranked strictly above the interpolation point.
        beyond = count - 1 - math.floor((count - 1) * pct / 100.0)
        if beyond >= MIN_BEYOND:
            return pct, percentile(ordered, pct), count
    return None, None, count


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> "array[float]":
    """Self time of every span: its duration minus what its children cover.

    Spans are given as parallel sequences; ``parents[i]`` is the index of
    span ``i``'s parent or ``-1``. Children may nest, overlap each other
    (asynchronous work) or run past their parent's end: only the union of
    their intervals, clipped to the parent, is subtracted.
    """
    count = len(starts)
    order: Sequence[int] = range(count)
    if any(starts[i] > starts[i + 1] for i in range(count - 1)):
        order = sorted(order, key=starts.__getitem__)
    covered = array("d", bytes(8 * count))
    # End of the union swept so far among each parent's children; children
    # are visited in start order, so one cursor per parent suffices.
    cursor = array("d", starts)
    for index in order:
        parent = parents[index]
        if parent < 0:
            continue
        low = max(starts[index], cursor[parent])
        high = min(ends[index], ends[parent])
        if high > low:
            covered[parent] += high - low
            cursor[parent] = high
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(count)))
