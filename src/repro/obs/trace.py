"""Span tracing with Chrome/Perfetto ``trace_event`` export.

A :class:`SpanTracer` is bound to one clock and collects *complete* spans —
``(name, category, start, duration)`` — plus instant and counter events, all
stamped in the clock's **microseconds**: simulated ones when the clock is an
engine (one tracer per cluster), wall-clock ones when it is the process's
:class:`~repro.obs.observer.Observability` hub.  Because the Chrome trace
format's ``ts`` unit is also microseconds, a run opens directly in
``chrome://tracing`` / Perfetto with no unit conversion.

Lane discipline: every simulation :class:`~repro.sim.engine.Process` carries
an engine-unique ``tid``; spans emitted while a process is active land on
that lane.  A process executes strictly sequentially, so spans within a lane
are properly nested by construction — the invariant the validator and the
flamegraph builder rely on.  A wall clock has no active process to infer a
lane from: its concurrent actors (asyncio tasks, server connections) each
pass their own ``tid``.  Lane 0 is for code running outside any process
(harness measurement windows); fault-plan windows, which may legitimately
overlap each other, each get their own lane above :data:`FAULT_TID_BASE`.

Hot-path contract: instrumented layers hold ``tracer = None`` by default and
guard every call with ``if tracer is not None`` — with tracing off, no trace
code executes at all.  When on, one span costs a tuple append; admission is
bounded by an :class:`EventBudget` (shared across every tracer of a hub, so
a 15-cluster sweep cannot record 15× the cap) with a drop counter so a dense
run degrades into a truncated trace instead of exhausting memory or
producing a multi-gigabyte JSON no viewer can open.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Fault-plan windows may overlap; each gets its own lane starting here.
FAULT_TID_BASE = 1_000_000

#: FaultPlan kind -> span name of its entries, in overlay order.
FAULT_SPAN_NAMES = {
    "drops": "fault.drop",
    "rpc_failures": "fault.rpc_failure",
    "spikes": "fault.spike",
    "outages": "fault.outage",
    "controller_crashes": "fault.controller_crash",
    "partitions": "fault.partition",
    "client_crashes": "fault.client_crash",
}

#: Event kinds stored in the buffer (subset of trace_event phases).
_COMPLETE, _INSTANT, _COUNTER = "X", "i", "C"


class EventBudget:
    """A shared admission counter: total events buffered across tracers.

    Hub-wide rather than per-tracer so experiments that build many clusters
    (fig02 instantiates 15) stay under one bound; exhausted budget means
    later events increment the owning tracer's ``dropped`` count.
    """

    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit


class SpanTracer:
    """Collects trace events against one clock; zero-cost when not installed.

    ``clock`` supplies ``_now`` in microseconds and, optionally, ``_active``
    (the running sim process, from which the lane is inferred).
    """

    __slots__ = ("clock", "pid", "label", "budget", "events", "dropped",
                 "_lane_names", "_fault_lanes")

    def __init__(self, clock, pid: int = 0, label: str = "",
                 max_events: int = 1_000_000,
                 budget: Optional[EventBudget] = None):
        self.clock = clock
        self.pid = pid
        self.label = label or f"engine-{pid}"
        self.budget = budget if budget is not None else EventBudget(max_events)
        #: Buffered events: (ph, name, cat, ts, dur, tid, args) tuples.
        self.events: List[Tuple] = []
        self.dropped = 0
        self._lane_names: Dict[int, str] = {0: "main"}
        self._fault_lanes = 0  # lanes consumed by earlier fault_windows()

    # -- recording ---------------------------------------------------------

    def _admit(self) -> bool:
        budget = self.budget
        if budget.remaining > 0:
            budget.remaining -= 1
            return True
        self.dropped += 1
        return False

    def _tid(self) -> int:
        active = getattr(self.clock, "_active", None)
        if active is None:
            return 0
        tid = active.tid
        if tid not in self._lane_names:
            self._lane_names[tid] = active.name or f"process-{tid}"
        return tid

    def complete(self, name: str, cat: str, start_us: float,
                 args: Optional[Dict[str, Any]] = None,
                 tid: Optional[int] = None) -> None:
        """Emit a span from ``start_us`` to *now*, on lane ``tid`` or, when
        None, the active process's."""
        if self._admit():
            self.events.append(
                (_COMPLETE, name, cat, start_us,
                 max(self.clock._now - start_us, 0.0),
                 self._tid() if tid is None else tid, args)
            )

    def complete_at(self, name: str, cat: str, start_us: float, dur_us: float,
                    tid: int = 0, args: Optional[Dict[str, Any]] = None) -> None:
        """Emit a span with explicit bounds and lane (windows, annotations)."""
        if self._admit():
            self.events.append(
                (_COMPLETE, name, cat, start_us, dur_us, tid, args)
            )

    def instant(self, name: str, cat: str,
                args: Optional[Dict[str, Any]] = None) -> None:
        """Emit a zero-duration marker at *now* on the active lane."""
        if self._admit():
            self.events.append(
                (_INSTANT, name, cat, self.clock._now, 0.0, self._tid(), args)
            )

    def instant_at(self, name: str, cat: str, ts_us: float, tid: int = 0,
                   args: Optional[Dict[str, Any]] = None) -> None:
        if self._admit():
            self.events.append((_INSTANT, name, cat, ts_us, 0.0, tid, args))

    def counter(self, name: str, ts_us: float,
                values: Dict[str, float]) -> None:
        """Emit a counter sample (resource-utilization timelines)."""
        if self._admit():
            self.events.append(
                (_COUNTER, name, "resource", ts_us, 0.0, 0, values)
            )

    def name_lane(self, tid: int, name: str) -> None:
        """Label a lane that never emits through a process (windows etc.)."""
        self._lane_names.setdefault(tid, name)

    def _fault_lane(self, name: str) -> int:
        tid = FAULT_TID_BASE + self._fault_lanes
        self._fault_lanes += 1
        self.name_lane(tid, name)
        return tid

    def fault_windows(self, plan_dict: Dict[str, Any],
                      base_ts: float = 0.0) -> None:
        """Overlay an armed plan (``FaultPlan.to_dict()``) on fault lanes.

        Windows may overlap in time, so each gets a private lane above
        :data:`FAULT_TID_BASE` — lanes are cheap and keep the per-lane
        nesting invariant intact.  Instants (client crashes) share one marker
        lane per kind.
        ``base_ts`` is where the plan's t=0 falls on this tracer's clock.
        """
        for kind, name in FAULT_SPAN_NAMES.items():
            marker_lane = None
            for item in plan_dict.get(kind, ()):
                if "at_us" in item:
                    if marker_lane is None:
                        marker_lane = self._fault_lane(name)
                    self.instant_at(
                        name, "fault", base_ts + item["at_us"],
                        tid=marker_lane, args=item,
                    )
                else:
                    self.complete_at(
                        name, "fault", base_ts + item["start_us"],
                        max(item["end_us"] - item["start_us"], 0.0),
                        tid=self._fault_lane(name), args=item,
                    )

    # -- export ------------------------------------------------------------

    def chrome_events(self) -> Iterator[Dict[str, Any]]:
        """Yield ``trace_event`` dicts for this tracer (metadata first)."""
        yield {
            "ph": "M", "name": "process_name", "pid": self.pid, "tid": 0,
            "ts": 0, "args": {"name": self.label},
        }
        for tid, name in sorted(self._lane_names.items()):
            yield {
                "ph": "M", "name": "thread_name", "pid": self.pid, "tid": tid,
                "ts": 0, "args": {"name": name},
            }
        for ph, name, cat, ts, dur, tid, args in self.events:
            event: Dict[str, Any] = {
                "ph": ph, "name": name, "cat": cat, "ts": ts,
                "pid": self.pid, "tid": tid,
            }
            if ph == _COMPLETE:
                event["dur"] = dur
            elif ph == _INSTANT:
                event["s"] = "t"
            if args is not None:
                event["args"] = args
            yield event


def chrome_document(tracers) -> Dict[str, Any]:
    """Merge tracers (one per engine/cluster) into one Chrome trace doc."""
    events: List[Dict[str, Any]] = []
    dropped = 0
    for tracer in tracers:
        events.extend(tracer.chrome_events())
        dropped += tracer.dropped
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated-us", "dropped_events": dropped},
    }


def write_chrome_trace(tracers, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_document(tracers), fh, separators=(",", ":"))


# -- validation ------------------------------------------------------------

#: Fields every event must carry to load in chrome://tracing.
REQUIRED_FIELDS = ("ph", "ts", "pid", "tid", "name")

#: Tolerance for float jitter when checking span containment.
_EPS = 1e-6


def validate_trace(doc: Dict[str, Any]) -> List[str]:
    """Check a parsed trace document; returns a list of problems (empty=ok).

    Schema: a ``traceEvents`` list whose events all carry
    ``ph``/``ts``/``pid``/``tid``/``name``; complete (``X``) events carry a
    non-negative ``dur``.  Structure: within each ``(pid, tid)`` lane,
    complete spans must be properly nested — overlap without containment
    means two spans claim the same sequential process, which is how a broken
    instrumentation point shows up.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    lanes: Dict[Tuple[int, int], List[Tuple[float, float, str]]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        missing = [f for f in REQUIRED_FIELDS if f not in event]
        if missing:
            problems.append(f"event {i} ({event.get('name')!r}): missing {missing}")
            continue
        if not isinstance(event["ts"], (int, float)):
            problems.append(f"event {i} ({event['name']!r}): non-numeric ts")
            continue
        if event["ph"] == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"event {i} ({event['name']!r}): X event needs dur >= 0"
                )
                continue
            lanes.setdefault((event["pid"], event["tid"]), []).append(
                (float(event["ts"]), float(dur), event["name"])
            )
    for (pid, tid), spans in sorted(lanes.items()):
        # Sort by start; ties put the longer (enclosing) span first.
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack: List[Tuple[float, float, str]] = []
        for start, dur, name in spans:
            end = start + dur
            while stack and start >= stack[-1][1] - _EPS:
                stack.pop()
            if stack and end > stack[-1][1] + _EPS:
                problems.append(
                    f"lane pid={pid} tid={tid}: span {name!r} "
                    f"[{start}, {end}) overlaps {stack[-1][2]!r} "
                    f"ending at {stack[-1][1]} without nesting"
                )
                continue
            stack.append((start, end, name))
    return problems
