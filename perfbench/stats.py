"""Order statistics for the benchmark report."""

from __future__ import annotations

import math
import statistics

# a tail percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """q-th percentile, 0 <= q <= 100, interpolating linearly between order
    statistics (numpy's default method)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the q-th percentile."""
    return n - math.ceil(n * q / 100.0 - 1e-9)


def tail_reportable(n: int, q: float) -> bool:
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
