"""The observability hub and its process-wide switch.

One :class:`Observability` per process holds, on either substrate: the
metrics registry; one :class:`~repro.obs.trace.SpanTracer` per bound
engine, in simulated µs, and its own wall-clock tracer, whose clock is the
hub (``perf_counter`` µs since construction; concurrent actors each take a
:meth:`~Observability.lane`); one event budget shared by all of them; and
the watched resources sampled inside measurement windows.  It exports
through :meth:`~Observability.export_chrome`/:meth:`~Observability.snapshot`
(the bench layer's ``--trace``) or :meth:`~Observability.flush`, which
writes every tracer's events, the metrics and the timelines as the shard
``shard-<role>-<pid>.json`` atomically (tmp + rename): flushing from a
drain path and again at exit is safe, and a SIGKILL leaves the last
complete shard or nothing.  :func:`repro.obs.runtime.merge_shards` aligns
a directory's shards onto one clock.

The switch keeps instrumentation inert by default: :func:`current` is
``None`` unless a hub was :func:`activate`'d (``--trace``, a test) or
armed by :func:`init` from ``REPRO_TRACE=<dir>``.  With no hub every
instrumented component holds ``None`` handles, so outputs are
byte-identical to an uninstrumented build.  This module is the only
reader of ``REPRO_TRACE``, ``REPRO_TRACE_EPOCH`` and ``REPRO_TRACE_EVENTS``.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry
from .sampler import WatchedResource, window_sample_times
from .trace import EventBudget, SpanTracer, chrome_document, write_chrome_trace

#: Events buffered across every tracer of one hub; ``REPRO_TRACE_EVENTS``
#: overrides it for an armed process.
DEFAULT_MAX_EVENTS = 1_000_000

#: Shard schema version (bumped on incompatible layout changes).
SHARD_SCHEMA = 2

#: Resource timelines are sampled this often inside a window (simulated µs).
_SAMPLE_EVERY_US = 1000.0


class Observability:
    """One process's tracers, metrics, timelines and shard export."""

    def __init__(
        self,
        directory: Optional[str] = None,
        role: Optional[str] = None,
        common_epoch_s: Optional[float] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        """``directory`` is where :meth:`flush` writes the shard (None: no
        shard).  ``max_events`` bounds the *total* buffered events across
        every tracer, so a verb-dense sweep records a truncated (still
        valid) trace with a drop count rather than an unloadable one."""
        self.directory = directory
        self.pid = os.getpid()
        self.role = role or "py"
        #: CLOCK_REALTIME at construction: the shard's alignment anchor.
        self.t0_epoch_s = time.time()
        self._t0 = time.perf_counter()
        self.common_epoch_s = common_epoch_s
        self.registry = MetricsRegistry()
        self._budget = EventBudget(max_events)
        self._tracers: List[SpanTracer] = []
        self._watched: List[WatchedResource] = []
        self._wall: Optional[SpanTracer] = None
        self._next_lane = 0
        self._lane_by_name: Dict[str, int] = {}

    # -- tracers -----------------------------------------------------------

    def bind(self, engine: Any, label: str = "") -> SpanTracer:
        """Create (or reuse) the tracer for ``engine``."""
        tracer = self.tracer_for(engine)
        if tracer is None:
            tracer = SpanTracer(
                engine, pid=len(self._tracers), label=label,
                budget=self._budget,
            )
            self._tracers.append(tracer)
        return tracer

    def tracer_for(self, engine: Any) -> Optional[SpanTracer]:
        """The tracer already bound to ``engine``, if any (no creation)."""
        for tracer in self._tracers:
            if tracer.clock is engine:
                return tracer
        return None

    @property
    def tracer(self) -> SpanTracer:
        """The hub's wall-clock tracer, bound on first use."""
        if self._wall is None:
            self._wall = self.bind(self, self.role)
        return self._wall

    # -- the wall clock ----------------------------------------------------

    def now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    #: The clock facet :class:`~repro.obs.trace.SpanTracer` reads.
    _now = property(now_us)

    def ts_from_epoch(self, epoch_s: float) -> float:
        """Map a ``time.time()`` instant onto the wall tracer's timeline.

        Used for schedules expressed in absolute time (the chaos gate's
        common arm origin): windows land where they actually fall on this
        process's lane, modulo sub-millisecond realtime/monotonic drift.
        """
        return (epoch_s - self.t0_epoch_s) * 1e6

    def lane(self, name: str) -> int:
        """Allocate (and label) a fresh wall lane for one sequential actor."""
        self._next_lane += 1
        self.tracer.name_lane(self._next_lane, name)
        return self._next_lane

    def lane_named(self, name: str) -> int:
        """The memoized lane for ``name`` (one shared lane per actor name).

        Used by components whose spans must not share lane 0 with phase
        spans they can overlap — e.g. the harness's kill/restart spans
        run concurrently with the loadgen's ``load`` phase span.
        """
        tid = self._lane_by_name.get(name)
        if tid is None:
            tid = self._lane_by_name[name] = self.lane(name)
        return tid

    @contextmanager
    def span(self, name: str, cat: str = "runtime", tid: int = 0,
             args: Optional[Dict[str, Any]] = None):
        """A wall-clock span around the ``with`` body."""
        t0 = self.now_us()
        try:
            yield self
        finally:
            self.tracer.complete(name, cat, t0, tid=tid, args=args)

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
            max(start_us, engine._now), end_us, _SAMPLE_EVERY_US
        )
        for when in times:
            engine.call_at(when, self._sample_all, engine)
        return len(times)

    # -- export ------------------------------------------------------------

    def chrome_document(self) -> Dict[str, Any]:
        return chrome_document(self._tracers)

    def export_chrome(self, path: str) -> None:
        """Write the merged Chrome trace for all bound tracers."""
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

    def shard_path(self) -> str:
        safe_role = "".join(
            ch if ch.isalnum() or ch in "._" else "-" for ch in self.role
        )
        return os.path.join(
            self.directory, f"shard-{safe_role}-{self.pid}.json"
        )

    def shard_document(self) -> Dict[str, Any]:
        """The :meth:`snapshot`, every tracer's events and who wrote them."""
        return {
            "schema": SHARD_SCHEMA,
            "role": self.role,
            "pid": self.pid,
            "origin_epoch_s": self.t0_epoch_s,
            "common_epoch_s": self.common_epoch_s,
            "traceEvents": self.chrome_document()["traceEvents"],
            **self.snapshot(),
        }

    def flush(self) -> Optional[str]:
        """Write the shard atomically; safe to call repeatedly.  Returns
        its path, or None for a hub with no ``directory``.

        The rename is the commit point: a crash mid-write leaves the old
        complete shard (or nothing) in place, never a truncated JSON.
        """
        if self.directory is None:
            return None
        os.makedirs(self.directory, exist_ok=True)
        path = self.shard_path()
        tmp = f"{path}.tmp.{self.pid}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.shard_document(), fh, separators=(",", ":"))
        os.replace(tmp, path)
        return path


# -- process-wide switch -----------------------------------------------------

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


@atexit.register
def _flush_current() -> None:
    """The one exit flush: writes the active hub's shard, if it has one."""
    if _current is not None:
        try:
            _current.flush()
        except OSError:  # pragma: no cover - best effort at teardown
            pass


def _env_float(name: str) -> Optional[float]:
    try:
        return float(os.environ[name])
    except (KeyError, ValueError):
        return None


def init(role: Optional[str] = None) -> Optional[Observability]:
    """The process's hub, armed from ``REPRO_TRACE=<dir>`` if that names a
    shard directory; None (inert) otherwise.  Idempotent.

    The first armed process of a deployment publishes its start instant
    as ``REPRO_TRACE_EPOCH``, so every child it spawns measures from the
    same origin — that is what lets
    :func:`~repro.obs.runtime.merge_shards` align lanes exactly instead
    of trusting per-process clocks.  An armed hub flushes its shard at
    interpreter exit.
    """
    global _env_checked
    _env_checked = True
    if _current is not None:
        return _current
    directory = os.environ.get("REPRO_TRACE")
    if not directory:
        return None
    budget = _env_float("REPRO_TRACE_EVENTS")
    common = _env_float("REPRO_TRACE_EPOCH")
    obs = activate(Observability(
        directory, role, common_epoch_s=common,
        max_events=DEFAULT_MAX_EVENTS if budget is None else int(budget),
    ))
    if common is None:
        # This process is the deployment's origin; children inherit it.
        obs.common_epoch_s = obs.t0_epoch_s
        os.environ["REPRO_TRACE_EPOCH"] = repr(obs.t0_epoch_s)
    return obs


def current() -> Optional[Observability]:
    """The active hub, or None (the inert default).  The first call
    honours ``REPRO_TRACE`` through :func:`init`."""
    if _current is None and not _env_checked:
        return init()
    return _current


@contextmanager
def maybe_span(name: str, cat: str = "runtime", tid: int = 0,
               args: Optional[Dict[str, Any]] = None,
               lane: Optional[str] = None):
    """A wall span when a hub is active; a free pass-through otherwise.

    For control paths (launch, kill, restart, drain) — hot frames use
    pre-bound handles and explicit ``is not None`` guards instead.
    ``lane`` selects a memoized named lane instead of the numeric ``tid``.
    """
    obs = current()
    if obs is None:
        yield None
        return
    if lane is not None:
        tid = obs.lane_named(lane)
    with obs.span(name, cat=cat, tid=tid, args=args):
        yield obs
