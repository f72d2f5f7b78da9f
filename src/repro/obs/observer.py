"""The observability hub and its process-wide runtime switch.

:class:`Observability` owns the metrics registry, one
:class:`~repro.obs.trace.SpanTracer` per bound engine, and the set of watched
resources whose utilization timelines get sampled inside measurement windows.
Clusters and harnesses pick the hub up from :func:`current` at construction
time, so existing experiments need no signature changes.

The runtime contract keeps instrumentation inert by default:

- :func:`current` returns ``None`` unless observability was explicitly
  :func:`activate`'d (by the bench layer's ``--trace`` flag, a test, or the
  ``REPRO_TRACE`` environment variable).
- With no hub active, every instrumented component carries ``tracer = None``
  and a ``None`` metrics handle — the hot path executes zero extra code and
  experiment outputs are byte-identical to an uninstrumented build.

Setting ``REPRO_TRACE=<dir>`` activates a hub at first use and registers an
``atexit`` hook that writes ``trace.json`` and ``metrics.json`` into that
directory, so any entry point can be traced without plumbing flags through.
"""

from __future__ import annotations

import atexit
import json
import os
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry
from .sampler import WatchedResource, window_sample_times
from .trace import EventBudget, SpanTracer, chrome_document, write_chrome_trace


class Observability:
    """Bundle of tracers, metrics, and resource timelines for one run."""

    def __init__(
        self,
        tracing: bool = True,
        sample_interval_us: float = 1000.0,
        max_events: int = 1_000_000,
        trace_dir: Optional[str] = None,
    ):
        """``max_events`` bounds the *total* buffered events across every
        tracer this hub binds — verb-dense sweeps record a truncated (still
        valid) trace with a drop count rather than an unloadable multi-GB
        one."""
        self.tracing = tracing
        self.sample_interval_us = sample_interval_us
        self.max_events = max_events
        self.trace_dir = trace_dir
        self.registry = MetricsRegistry()
        self._budget = EventBudget(max_events)
        self._tracers: List[SpanTracer] = []
        self._watched: List[WatchedResource] = []

    # -- tracer management -------------------------------------------------

    def bind(self, engine: Any, label: str = "") -> Optional[SpanTracer]:
        """Create (or reuse) the tracer for ``engine``; None if tracing off."""
        if not self.tracing:
            return None
        for tracer in self._tracers:
            if tracer.clock is engine:
                return tracer
        tracer = SpanTracer(
            engine,
            pid=len(self._tracers),
            label=label,
            budget=self._budget,
        )
        self._tracers.append(tracer)
        return tracer

    def tracer_for(self, engine: Any) -> Optional[SpanTracer]:
        """The tracer already bound to ``engine``, if any (no creation)."""
        for tracer in reversed(self._tracers):
            if tracer.clock is engine:
                return tracer
        return None

    # -- resource timelines ------------------------------------------------

    def watch(self, name: str, resource: Any, engine: Any) -> WatchedResource:
        """Register a resource for window sampling; name should be unique."""
        watched = WatchedResource(name, resource, engine)
        self._watched.append(watched)
        return watched

    def _sample_all(self, engine: Any) -> None:
        tracer = self.tracer_for(engine)
        now = engine._now
        for watched in self._watched:
            if watched.engine is not engine:
                continue
            values = watched.take_sample()
            if tracer is not None:
                tracer.counter(
                    watched.name, now,
                    {k: float(v) for k, v in values.items()},
                )

    def schedule_window_samples(
        self, engine: Any, start_us: float, end_us: float
    ) -> int:
        """Pre-schedule bounded one-shot samples across a measurement window.

        One-shot ``call_at`` callbacks (not a periodic process) so the engine
        heap still drains — ``bench.runner.preload`` runs the engine to heap
        exhaustion and must not hang.  Returns the number of points scheduled.
        """
        if not any(w.engine is engine for w in self._watched):
            return 0
        times = window_sample_times(
            max(start_us, engine._now), end_us, self.sample_interval_us
        )
        for when in times:
            engine.call_at(when, self._sample_all, engine)
        return len(times)

    # -- export --------------------------------------------------------------

    def chrome_document(self) -> Dict[str, Any]:
        return chrome_document(self._tracers)

    def export_chrome(self, path: str) -> None:
        """Write the merged Chrome trace for all bound engines."""
        write_chrome_trace(self._tracers, path)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe end-of-run dump: metrics, timelines, trace stats."""
        return {
            "metrics": self.registry.snapshot(),
            "timelines": [w.summary() for w in self._watched],
            "trace": {
                "tracers": len(self._tracers),
                "events": sum(len(t.events) for t in self._tracers),
                "dropped": sum(t.dropped for t in self._tracers),
            },
        }


# -- process-wide runtime ----------------------------------------------------

_current: Optional[Observability] = None
_env_checked = False


def activate(obs: Optional[Observability] = None) -> Observability:
    """Install ``obs`` (or a fresh hub) as the process-wide observability."""
    global _current
    if obs is None:
        obs = Observability()
    _current = obs
    return obs


def deactivate() -> None:
    """Remove the process-wide hub; components built afterwards are inert."""
    global _current
    _current = None


def _atexit_export(obs: Observability, directory: str) -> None:
    if not obs._tracers and not obs._watched:
        return
    os.makedirs(directory, exist_ok=True)
    obs.export_chrome(os.path.join(directory, "trace.json"))
    with open(os.path.join(directory, "metrics.json"), "w",
              encoding="utf-8") as fh:
        json.dump(obs.snapshot(), fh, indent=2, sort_keys=True)


def current() -> Optional[Observability]:
    """The active hub, or None (the inert default).

    First call honours ``REPRO_TRACE=<dir>``: it activates a hub and arranges
    for the trace and metrics to be written into ``<dir>`` at interpreter
    exit.
    """
    global _env_checked, _current
    if _current is None and not _env_checked:
        _env_checked = True
        directory = os.environ.get("REPRO_TRACE")
        if directory:
            obs = activate(Observability(trace_dir=directory))
            atexit.register(_atexit_export, obs, directory)
    return _current
