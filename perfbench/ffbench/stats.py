"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
from typing import Sequence

# Percentiles the tail rule may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(count: int, q: float) -> int:
    """Number of samples strictly above the q-th percentile position."""
    return count - 1 - math.floor((count - 1) * q / 100.0)


def tail_percentile(count: int, min_beyond: int = 10) -> float:
    """Highest ladder percentile with at least `min_beyond` samples beyond it.

    Returns 0.0 when even the median lacks that support.
    """
    best = 0.0
    for q in TAIL_LADDER:
        if samples_beyond(count, q) >= min_beyond:
            best = q
    return best


def min_samples_for(q: float, min_beyond: int = 10) -> int:
    """Smallest sample count for which `q` has `min_beyond` samples beyond it."""
    count = 1
    while samples_beyond(count, q) < min_beyond:
        count += 1
    return count
