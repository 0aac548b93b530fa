"""Percentiles and spreads, with the benchmark's reporting rule.

A timing is reported as its median plus the highest percentile that
has at least ``MIN_BEYOND`` samples beyond it; a percentile without
that support is printed as ``n/a`` next to the sample count instead of
a number.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAILS = (0.999, 0.99, 0.9)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def supported(count: int, q: float) -> bool:
    """True iff at least ``MIN_BEYOND`` of *count* samples lie beyond
    the nearest-rank *q* percentile."""
    return count - max(1, math.ceil(q * count)) >= MIN_BEYOND


def highest_supported(count: int) -> float | None:
    """The highest tail percentile *count* samples support, or None."""
    for q in TAILS:
        if supported(count, q):
            return q
    return None


def summary(values: Sequence[float]) -> str:
    """Median plus the highest supported tail, with the sample count;
    ``p90 n/a`` when not even the 90th percentile is supported."""
    if not values:
        return "n=0"
    tail = highest_supported(len(values))
    text = f"p50 {percentile(values, 0.5):.4g}, "
    if tail is None:
        text += f"p{TAILS[-1] * 100:g} n/a"
    else:
        text += f"p{tail * 100:g} {percentile(values, tail):.4g}"
    return f"{text} (n={len(values)})"


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf
