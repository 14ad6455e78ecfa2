"""Percentiles and spreads used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def _rank(count: int, q: float) -> int:
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(q / 100.0 * count, 9)))


def nearest_rank(values, q: float) -> float:
    """The q-th percentile by the nearest-rank rule (a sample, never interpolated)."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must lie in (0, 100]")
    return sorted(values)[_rank(len(values), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile position."""
    return count - _rank(count, q)


def tail_percentile(count: int) -> float | None:
    """Highest tail percentile with at least ten samples beyond it, if any."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(count, q) >= MIN_BEYOND:
            return q
    return None


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
