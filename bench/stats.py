"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; below that, one outlier moves it arbitrarily.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    ``q`` of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile share {q} outside (0, 1]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def relative_iqr(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
