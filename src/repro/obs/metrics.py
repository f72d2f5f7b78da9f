"""Metrics registry: counters, gauges, and streaming histograms with labels.

Components register named instruments instead of keeping ad-hoc tallies, and
the registry renders one deterministic JSON-safe snapshot at the end of a run
(attached to cached benchmark results by the parallel runner).  Instruments
are identified by ``(name, labels)``: registering the same identity twice
returns the same instrument, so independent components can share a series
(e.g. every client records into the ``op.latency{verb=get}`` histogram).

Labels are free-form string pairs; the conventional keys in this repository
are ``component`` (client / controller / nic / allocator), ``client`` and
``verb``.  Histograms are :class:`repro.sim.stats.StreamingHistogram` —
bounded memory regardless of sample count, with p50/p90/p99 in snapshots.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.stats import StreamingHistogram

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """A labeled streaming histogram (bounded memory, approximate tails)."""

    __slots__ = ("name", "labels", "hist")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels
        self.hist = StreamingHistogram()

    def record(self, value: float, count: int = 1) -> None:
        self.hist.record(value, count)

    @property
    def count(self) -> int:
        return self.hist.count

    def percentile(self, p: float) -> float:
        return self.hist.percentile(p)

    def summary(self) -> Dict[str, float]:
        return self.hist.summary()


def _histogram_row(hist: Histogram) -> Dict[str, float]:
    """Summary fields for a snapshot row, strictly JSON-safe.

    A pre-bound histogram that never saw a sample summarises to NaN/inf
    sentinels; those are not valid JSON and poison shard files and the
    ``__stats__`` payload, so an empty instrument renders as all zeros.
    """
    if hist.count == 0:
        return {"count": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0}
    return dict(hist.summary())


class MetricsRegistry:
    """Get-or-create instrument store with a deterministic snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}
        self._bridges: List[Tuple[object, Dict[str, str]]] = []

    def bridge(self, counters, **labels: str) -> None:
        """Fold a ``CounterSet``'s totals into every :meth:`snapshot`.

        The RDMA/cache layers keep their hot-path ``CounterSet`` tallies (one
        dict op per event); bridging copies the totals into counters at dump
        time instead of double-counting on the hot path.
        """
        self._bridges.append((counters, labels))

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _labelset(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _labelset(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _labelset(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1])
        return instrument

    @staticmethod
    def _rows(instruments: Iterable, render) -> List[Dict]:
        rows = [
            {"name": i.name, "labels": dict(i.labels), **render(i)}
            for i in instruments
        ]
        rows.sort(key=lambda r: (r["name"], sorted(r["labels"].items())))
        return rows

    def snapshot(self) -> Dict[str, List[Dict]]:
        """JSON-safe dump of every instrument, deterministically ordered."""
        for counters, labels in self._bridges:
            for name, value in counters.as_dict().items():
                self.counter(name, **labels).value = value
        return {
            "counters": self._rows(
                self._counters.values(), lambda c: {"value": c.value}
            ),
            "gauges": self._rows(
                self._gauges.values(), lambda g: {"value": g.value}
            ),
            "histograms": self._rows(
                self._histograms.values(), _histogram_row
            ),
        }

    def find(
        self, kind: str, name: str, **labels: str
    ) -> Optional[object]:
        """Look an instrument up without creating it (tests, reports)."""
        store = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }[kind]
        return store.get((name, _labelset(labels)))
