"""Order statistics the benchmark reports, kept apart so they can be tested."""

from __future__ import annotations

import math
import statistics

# the value of a per-layer metric whose hooked callable no longer exists
ABSENT = "absent"


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values: list[float], q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, and 0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as `statistics.quantiles(n=4)` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return ratio(q3 - q1, statistics.median(values))
