"""Order statistics used by the benchmark: nearest-rank percentiles,
quartile spreads, and the tail rule that decides which percentile a sample is
large enough to report."""

from __future__ import annotations

import math
import statistics

# Percentiles the tail rule may pick, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
# A reported tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples (rounded
    first so that, say, 99.9% of 10000 is exactly 9990)."""
    return max(math.ceil(round(p / 100.0 * n, 9)), 1)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p percent
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), p) - 1])


def samples_beyond(n: int, p: float) -> int:
    """Number of samples ranked strictly above the nearest-rank p-th
    percentile of n samples."""
    return n - _rank(n, p)


def tail_percentile(n: int):
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles with n=4, the exclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
