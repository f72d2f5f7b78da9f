"""``repro.obs`` — one observability hub per process, on both substrates.

Three pillars (see DESIGN.md §3.3 and §3.9):

- **Metrics** (:mod:`repro.obs.metrics`): labeled counters, gauges, and
  bounded-memory streaming histograms with a deterministic JSON snapshot.
- **Tracing** (:mod:`repro.obs.trace`): spans around RDMA verbs,
  controller RPCs, client operations, allocator calls, served frames and
  fault windows, in simulated or wall-clock µs, exported as
  Chrome/Perfetto ``trace_event`` JSON.
- **Timelines** (:mod:`repro.obs.sampler`): NIC-slot, MN-CPU, and lock-wait
  utilization sampled from ``sim.resources`` inside measurement windows.

One :class:`Observability` hub per process holds all three.  Everything
is inert unless a hub is active — via the bench layer's ``--trace`` flag,
:func:`activate`, or ``REPRO_TRACE=<dir>``, which arms a hub that writes
one shard per process.  With no hub, instrumented components hold
``None`` handles and skip all observability code, keeping experiment
outputs byte-identical to an uninstrumented run.

Analysis lives in :mod:`repro.obs.report` (``python -m repro.obs.report``);
shard merging and run digests in :mod:`repro.obs.runtime`.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .observer import (Observability, activate, current, deactivate, init,
                       maybe_span)
from .sampler import WatchedResource, window_sample_times
from .trace import (
    FAULT_TID_BASE,
    EventBudget,
    SpanTracer,
    chrome_document,
    validate_trace,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "activate",
    "current",
    "deactivate",
    "init",
    "maybe_span",
    "WatchedResource",
    "window_sample_times",
    "FAULT_TID_BASE",
    "EventBudget",
    "SpanTracer",
    "chrome_document",
    "validate_trace",
    "write_chrome_trace",
]
