"""Resource-utilization timelines sampled from ``sim.resources``.

A :class:`WatchedResource` pairs a name like ``mn0.nic`` with any object
exposing ``sample() -> dict`` (``Resource``, the one-slot ``RateLimiter``,
``MemoryBudget``).  Samples are **pre-scheduled** as bounded one-shot engine
callbacks inside known measurement windows rather than driven by an immortal
periodic process: the bench layer's ``preload`` runs the engine until the
event heap drains, and a self-rescheduling sampler would keep the heap
populated forever.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple


class WatchedResource:
    """One sampled resource: identity, sample source, and its timeline."""

    __slots__ = ("name", "resource", "engine", "timeline")

    def __init__(self, name: str, resource: Any, engine: Any):
        self.name = name
        self.resource = resource
        self.engine = engine
        #: ``(sim_ts_us, sample dict)`` pairs in sample order.
        self.timeline: List[Tuple[float, Dict[str, float]]] = []

    def take_sample(self) -> Dict[str, float]:
        """Record one sample at the engine's current simulated time."""
        values = self.resource.sample()
        self.timeline.append((self.engine._now, values))
        return values

    def summary(self) -> Dict[str, Any]:
        """Per-field mean/max over the timeline (JSON-safe)."""
        out: Dict[str, Any] = {"name": self.name, "samples": len(self.timeline)}
        if not self.timeline:
            return out
        fields: Dict[str, List[float]] = {}
        for _ts, values in self.timeline:
            for key, value in values.items():
                fields.setdefault(key, []).append(float(value))
        out["fields"] = {
            key: {
                "mean": sum(series) / len(series),
                "max": max(series),
            }
            for key, series in sorted(fields.items())
        }
        return out


def window_sample_times(
    start_us: float, end_us: float, interval_us: float, max_points: int = 1000
) -> List[float]:
    """Sample timestamps covering ``[start_us, end_us]``, bounded in count.

    The interval is widened if needed so a long window never schedules more
    than ``max_points`` callbacks.
    """
    if end_us <= start_us or interval_us <= 0:
        return [start_us]
    span = end_us - start_us
    points = int(span / interval_us) + 1
    if points > max_points:
        interval_us = span / (max_points - 1)
        points = max_points
    return [min(start_us + i * interval_us, end_us) for i in range(points)]
