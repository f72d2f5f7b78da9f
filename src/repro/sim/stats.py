"""Measurement utilities: latency distributions, counters and rates."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence


class StreamingHistogram:
    """Bounded-memory value distribution with approximate percentiles.

    Log-spaced buckets with ``growth`` ratio between edges bound the relative
    quantile error to about ``growth - 1`` (2% by default) while using a fixed
    ~1.4k-int bucket array regardless of sample count — the HDR-histogram
    construction rack-scale simulators use for per-event latency streams.
    Values at or below ``lo`` land in an underflow bucket; values above ``hi``
    in an overflow bucket.  Exact ``min``/``max``/``sum`` are tracked on the
    side so extreme percentiles stay sharp.
    """

    __slots__ = ("lo", "growth", "count", "total", "_log_growth", "_min",
                 "_max", "_buckets")

    def __init__(self, lo: float = 1e-3, hi: float = 1e9, growth: float = 1.02):
        if lo <= 0 or hi <= lo:
            raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
        if growth <= 1.0:
            raise ValueError(f"bucket growth must exceed 1, got {growth}")
        self.lo = lo
        self.growth = growth
        self._log_growth = math.log(growth)
        nbuckets = int(math.ceil(math.log(hi / lo) / self._log_growth)) + 2
        self._buckets = [0] * nbuckets
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, value: float, count: int = 1) -> None:
        if value <= self.lo:
            index = 0
        else:
            index = int(math.log(value / self.lo) / self._log_growth) + 1
            if index >= len(self._buckets):
                index = len(self._buckets) - 1
        self._buckets[index] += count
        self.count += count
        self.total += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold ``other`` (same geometry) into this histogram."""
        if (other.lo, other.growth, len(other._buckets)) != (
            self.lo, self.growth, len(self._buckets)
        ):
            raise ValueError("cannot merge histograms with different geometry")
        for i, n in enumerate(other._buckets):
            if n:
                self._buckets[i] += n
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    @property
    def min(self) -> float:
        return self._min if self.count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self.count else float("nan")

    def mean(self) -> float:
        if not self.count:
            return float("nan")
        return self.total / self.count

    def percentile(self, p: float) -> float:
        """p in [0, 100]; approximate within one bucket's relative width."""
        if not self.count:
            return float("nan")
        rank = (p / 100.0) * (self.count - 1)
        cumulative = 0
        for index, n in enumerate(self._buckets):
            if not n:
                continue
            cumulative += n
            if cumulative > rank:
                if index == 0:
                    estimate = self.lo
                else:
                    # Geometric midpoint of the bucket's edges.
                    lower = self.lo * self.growth ** (index - 1)
                    estimate = lower * math.sqrt(self.growth)
                return min(max(estimate, self._min), self._max)
        return self._max

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def reset(self) -> None:
        for i in range(len(self._buckets)):
            self._buckets[i] = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf


class LatencyStats:
    """Collects latency samples (microseconds) for percentiles.

    Small series keep every sample and report exact percentiles (numpy's
    linear interpolation, the semantics every experiment table was built on).
    Once :attr:`EXACT_LIMIT` samples accumulate, the series spills into a
    :class:`StreamingHistogram`, bounding memory for full-scale runs where a
    measurement window can hold millions of completions.
    """

    #: Samples kept exactly before spilling to the streaming histogram (2 MB
    #: of floats at most; quick-scale experiment windows stay comfortably
    #: below this, keeping their outputs exact and byte-stable).
    EXACT_LIMIT = 262_144

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._hist: Optional[StreamingHistogram] = None

    def _spill(self) -> None:
        hist = StreamingHistogram()
        hist.extend(self._samples)
        self._samples.clear()
        self._hist = hist

    def record(self, latency_us: float) -> None:
        if self._hist is not None:
            self._hist.record(latency_us)
            return
        self._samples.append(latency_us)
        if len(self._samples) >= self.EXACT_LIMIT:
            self._spill()

    def extend(self, latencies: Iterable[float]) -> None:
        if self._hist is not None:
            self._hist.extend(latencies)
            return
        self._samples.extend(latencies)
        if len(self._samples) >= self.EXACT_LIMIT:
            self._spill()

    @property
    def exact(self) -> bool:
        """True while every sample is retained (exact percentiles)."""
        return self._hist is None

    def __len__(self) -> int:
        return self.count

    @property
    def count(self) -> int:
        if self._hist is not None:
            return self._hist.count
        return len(self._samples)

    def mean(self) -> float:
        if self._hist is not None:
            return self._hist.mean()
        if not self._samples:
            return float("nan")
        import numpy as np  # here, not at the top: a memory node never loads it
        return float(np.mean(self._samples))

    def percentile(self, p: float) -> float:
        """p in [0, 100]; e.g. ``percentile(99)`` is the tail latency."""
        if self._hist is not None:
            return self._hist.percentile(p)
        if not self._samples:
            return float("nan")
        import numpy as np
        return float(np.percentile(self._samples, p))

    def median(self) -> float:
        return self.percentile(50)

    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.median(),
            "p99": self.p99(),
        }

    def reset(self) -> None:
        self._samples.clear()
        self._hist = None


class CounterSet:
    """Named monotonically increasing counters (RDMA ops, hits, misses...)."""

    def __init__(self) -> None:
        #: Hot paths bind this dict and count in place rather than call add.
        self.counts: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def reset(self) -> None:
        self.counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"CounterSet({body})"


def hit_rate(hits: int, misses: int) -> float:
    """Fraction of lookups that hit; 0.0 for an empty run."""
    total = hits + misses
    if total == 0:
        return 0.0
    return hits / total


def relative_change(values: Sequence[float]) -> float:
    """Paper's relative hit-rate change: (max - min) / max (0 if degenerate)."""
    if not values:
        return 0.0
    top = max(values)
    if top <= 0 or math.isnan(top):
        return 0.0
    return (top - min(values)) / top
