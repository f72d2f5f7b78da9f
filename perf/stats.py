"""Small statistics used by the benchmark: percentiles, spreads, medians."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

#: A percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (any order, non-empty)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> float:
    """Highest of 99 / 90 / 50 that has ``SAMPLES_BEYOND`` samples past it."""
    for p in (99.0, 90.0):
        if count * (100.0 - p) / 100.0 >= SAMPLES_BEYOND:
            return p
    return 50.0


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median, the supported tail and the sample count of one op type.

    ``tail_p`` says which percentile ``tail`` really is: 99 from 1000
    samples up, lower when a (smoke) run was too short to support it.
    """
    if not samples:
        return {"p50": 0.0, "tail": 0.0, "tail_p": 0.0, "count": 0}
    tail_p = tail_percentile(len(samples))
    return {
        "p50": percentile(samples, 50.0),
        "tail": percentile(samples, tail_p),
        "tail_p": tail_p,
        "count": len(samples),
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
