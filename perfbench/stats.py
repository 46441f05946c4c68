"""Summary statistics used by the benchmark report."""
from __future__ import annotations

import math
import statistics

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float] | None:
    """The highest ladder percentile with at least MIN_BEYOND samples above it.

    Returns (percentile, value) by the nearest-rank rule, or None when even
    the median has fewer than MIN_BEYOND samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in PERCENTILE_LADDER:
        rank = math.ceil(p * n / 100.0 - 1e-9)  # guard 99.9 * n / 100 rounding up
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (p, xs[rank - 1])
    return best


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
