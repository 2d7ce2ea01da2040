"""Summary statistics the benchmark reports: medians and honest tails."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: beyond it; with fewer it would describe a handful of ops, not a tail.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float], fraction: float = 0.90) -> Optional[float]:
    """The ``fraction`` percentile (nearest rank), or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    count = len(values)
    if math.floor(count * (1.0 - fraction) + 1e-9) < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    return float(ordered[math.ceil(fraction * count) - 1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
