"""Wall-clock observability for real-substrate processes.

The sim observability stack (:mod:`repro.obs.observer`) is built around
one discrete-event engine in one process.  The real substrate is many
processes — the ``repro.serve`` launcher, one ``repro.runtime.server``
per memory node, loadgen clients — each with its own wall clock and its
own exit path (clean return, SIGTERM drain, SIGKILL).  This module is
their per-process hub, built from the same tracer and registry:

- :class:`ProcessObs` — one per process: a
  :class:`~repro.obs.trace.SpanTracer` clocked by ``time.perf_counter()``
  (the hub itself is the tracer's clock) plus a
  :class:`~repro.obs.metrics.MetricsRegistry`.  There is no engine-active
  process to infer a lane from, so concurrent asyncio actors (loadgen
  clients, server connections) each allocate their own lane and pass it
  as ``tid`` — per-lane spans stay properly nested and the validator/
  flamegraph machinery applies as-is.  The hub is exported as a *shard*
  file ``shard-<role>-<pid>.json`` in the ``REPRO_TRACE`` directory.
  Shard writes are atomic (tmp + rename) and idempotent, so flushing
  from a SIGTERM drain path and again from atexit is safe, and a
  SIGKILLed process leaves either its last complete shard or nothing —
  never a torn file that poisons the merge.

- :func:`merge_shards` — aligns every shard in a directory onto one
  clock and emits a single Chrome trace with one ``pid`` lane per
  process.  Alignment: the first process to arm observability (the
  launcher) publishes its start instant as ``REPRO_TRACE_EPOCH``;
  children inherit it through the environment and record it in their
  shards, so offsets are exact differences of ``CLOCK_REALTIME``
  captures on one host.  Shards lacking a common epoch fall back to
  aligning on the earliest shard's origin.  Cross-host NTP-class skew is
  out of scope (DESIGN §3.9).

Activation mirrors the sim contract: everything is inert unless
``REPRO_TRACE=<dir>`` is set (or :func:`init` is called explicitly with
a directory).  With no hub, :func:`current` returns ``None`` and
instrumented components hold ``None`` handles — zero observability code
runs on hot frames, which a conformance test asserts.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from contextlib import contextmanager
from glob import glob
from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry
from .trace import SpanTracer

#: Default per-process event budget; override with REPRO_TRACE_EVENTS.
DEFAULT_MAX_EVENTS = 300_000

#: Shard schema version (bumped on incompatible layout changes).
SHARD_SCHEMA = 1

_SHARD_GLOB = "shard-*.json"


class ProcessObs:
    """Per-process observability: tracer + metrics + shard export, on the
    wall clock (``_now``: microseconds since construction)."""

    def __init__(
        self,
        directory: str,
        role: str,
        common_epoch_s: Optional[float] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        self.directory = directory
        self.role = role
        self.pid = os.getpid()
        #: CLOCK_REALTIME at tracer start: the shard's alignment anchor.
        self.t0_epoch_s = time.time()
        self._t0 = time.perf_counter()
        self.common_epoch_s = common_epoch_s
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(self, label=role, max_events=max_events)
        self._next_lane = 0
        self._lane_by_name: Dict[str, int] = {}

    # -- clocks ------------------------------------------------------------

    def now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    #: The clock facet :class:`~repro.obs.trace.SpanTracer` reads.
    _now = property(now_us)

    def ts_from_epoch(self, epoch_s: float) -> float:
        """Map a ``time.time()`` instant onto this tracer's timeline.

        Used for schedules expressed in absolute time (the chaos gate's
        common arm origin): windows land where they actually fall on this
        process's lane, modulo sub-millisecond realtime/monotonic drift.
        """
        return (epoch_s - self.t0_epoch_s) * 1e6

    # -- lanes -------------------------------------------------------------

    def lane(self, name: str) -> int:
        """Allocate (and label) a fresh lane for one sequential actor."""
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
            tid = self.lane(name)
            self._lane_by_name[name] = tid
        return tid

    @contextmanager
    def span(self, name: str, cat: str = "runtime", tid: int = 0,
             args: Optional[Dict[str, Any]] = None):
        t0 = self.now_us()
        try:
            yield self
        finally:
            self.tracer.complete(name, cat, t0, tid=tid, args=args)

    # -- export ------------------------------------------------------------

    def shard_path(self) -> str:
        safe_role = "".join(
            ch if ch.isalnum() or ch in "._" else "-" for ch in self.role
        )
        return os.path.join(
            self.directory, f"shard-{safe_role}-{self.pid}.json"
        )

    def shard_document(self) -> Dict[str, Any]:
        return {
            "schema": SHARD_SCHEMA,
            "role": self.role,
            "pid": self.pid,
            "origin_epoch_s": self.t0_epoch_s,
            "common_epoch_s": self.common_epoch_s,
            "clock": "wall-us",
            "traceEvents": list(self.tracer.chrome_events()),
            "dropped": self.tracer.dropped,
            "metrics": self.registry.snapshot(),
        }

    def flush(self) -> str:
        """Write the shard atomically; safe to call repeatedly.

        The rename is the commit point: a crash mid-write leaves the old
        complete shard (or nothing) in place, never a truncated JSON.
        """
        os.makedirs(self.directory, exist_ok=True)
        path = self.shard_path()
        tmp = f"{path}.tmp.{self.pid}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.shard_document(), fh, separators=(",", ":"))
        os.replace(tmp, path)
        return path


# -- shard merge -------------------------------------------------------------


def load_shard(path: str) -> Optional[Dict[str, Any]]:
    """Parse one shard; None for anything unusable (partial/foreign file)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict):
        return None
    if not isinstance(doc.get("traceEvents"), list):
        return None
    if not isinstance(doc.get("origin_epoch_s"), (int, float)):
        return None
    return doc


def merge_shards(directory: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Merge every shard in ``directory`` into one Chrome trace document.

    Returns ``(doc, info)``: the merged ``trace_event`` document (one
    ``pid`` per shard, timestamps realigned onto the common origin) and a
    summary — per-shard roles/pids/event counts/offsets plus the files
    that were skipped as unparsable (e.g. a partial write surviving a
    SIGKILL outside the atomic-rename window, or a stray file).
    """
    paths = sorted(glob(os.path.join(directory, _SHARD_GLOB)))
    shards: List[Tuple[str, Dict[str, Any]]] = []
    skipped: List[str] = []
    for path in paths:
        doc = load_shard(path)
        if doc is None:
            skipped.append(os.path.basename(path))
        else:
            shards.append((os.path.basename(path), doc))

    commons = {
        shard.get("common_epoch_s")
        for _name, shard in shards
        if shard.get("common_epoch_s") is not None
    }
    if len(commons) == 1 and len(shards) > 0 and all(
        shard.get("common_epoch_s") is not None for _n, shard in shards
    ):
        base = commons.pop()
    else:
        base = min(
            (shard["origin_epoch_s"] for _n, shard in shards), default=0.0
        )

    # Deterministic pid assignment: sort by (role, start instant, pid).
    shards.sort(key=lambda item: (
        str(item[1].get("role", "")),
        float(item[1]["origin_epoch_s"]),
        int(item[1].get("pid", 0)),
    ))

    events: List[Dict[str, Any]] = []
    info_shards: List[Dict[str, Any]] = []
    dropped = 0
    for pid, (name, shard) in enumerate(shards):
        offset_us = (float(shard["origin_epoch_s"]) - base) * 1e6
        count = 0
        for event in shard["traceEvents"]:
            if not isinstance(event, dict):
                continue
            out = dict(event)
            out["pid"] = pid
            if out.get("ph") == "M":
                if out.get("name") == "process_name":
                    out["args"] = {
                        "name": f"{shard.get('role', name)} "
                                f"[pid {shard.get('pid', '?')}]"
                    }
            else:
                ts = out.get("ts")
                if isinstance(ts, (int, float)):
                    out["ts"] = ts + offset_us
                count += 1
            events.append(out)
        dropped += int(shard.get("dropped", 0) or 0)
        info_shards.append({
            "file": name,
            "role": shard.get("role"),
            "pid": shard.get("pid"),
            "merged_pid": pid,
            "events": count,
            "offset_us": offset_us,
        })

    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "wall-us-since-epoch-origin",
            "epoch_origin_s": base,
            "shards": len(shards),
            "skipped_shards": skipped,
            "dropped_events": dropped,
        },
    }
    info = {
        "directory": directory,
        "epoch_origin_s": base,
        "shards": info_shards,
        "skipped": skipped,
    }
    return doc, info


# -- post-run digest ---------------------------------------------------------

#: Client-side retry/fault counters surfaced in digests, in print order.
RETRY_COUNTER_KEYS = (
    "conn_resend",
    "cas_fate_resolved",
    "fault_verb_timeout",
    "fault_node_unavailable",
    "breaker_trip",
    "fenced_post_dropped",
    "fault_post_dropped",
)


def build_digest(report: Dict[str, Any]) -> Dict[str, Any]:
    """Condense a loadgen/chaos report into the post-run metrics digest.

    The digest is the at-a-glance health readout ``repro.runtime.validate``
    and ``run_chaos`` print and persist next to their verdict: per-verb
    p50/p99, retry/resend/breaker counts, and (when a chaos section is
    present) the per-node fault-gate verdict counts and sweep outcome.
    ``nodes`` carries each memory node's frame/wake-up/send counts, from
    which frames per wake-up — how well the load coalesced — is printed,
    and ``links`` the frames and flushes of the load generator's links
    and the verbs of its that needed the recovery coroutine.
    """
    counters = report.get("counters", {}) or {}
    digest: Dict[str, Any] = {
        "ops": report.get("ops"),
        "failed_ops": report.get("failed_ops"),
        "ops_per_s": report.get("ops_per_s"),
        "latency_us": {
            "get": {"p50": report.get("get_p50_us"),
                    "p99": report.get("get_p99_us")},
            "set": {"p50": report.get("set_p50_us"),
                    "p99": report.get("set_p99_us")},
        },
        "retries": {
            key: counters.get(key, 0) for key in RETRY_COUNTER_KEYS
        },
        "nodes": list(report.get("nodes") or ()),
        "links": report.get("links"),
    }
    chaos = report.get("chaos")
    if isinstance(chaos, dict):
        digest["chaos"] = {
            key: chaos[key]
            for key in (
                "verdicts", "adopted_grants", "repaired_slots", "sweep",
                "killed_at_s", "restarted_at_s",
            )
            if key in chaos
        }
    return digest


def format_digest(digest: Dict[str, Any]) -> str:
    """Human-readable digest block (one screen, stable order)."""
    lines = ["-- post-run digest --"]
    lines.append(
        f"ops={digest.get('ops')} failed={digest.get('failed_ops')} "
        f"ops/s={digest.get('ops_per_s')}"
    )
    latency = digest.get("latency_us", {})
    for verb in sorted(latency):
        row = latency[verb]
        p50, p99 = row.get("p50"), row.get("p99")
        if p50 is None and p99 is None:
            continue
        lines.append(f"{verb:<4} p50={p50} us  p99={p99} us")
    retries = digest.get("retries", {})
    busy = {key: val for key, val in retries.items() if val}
    lines.append(f"retries: {busy if busy else 'none'}")
    links = digest.get("links")
    if links:
        lines.append(
            f"client: frames={links['frames']} flushes={links['flushes']} "
            f"frames/flush={links['frames'] / max(1, links['flushes']):.2f} "
            f"recovered={links.get('recovered', 0)} "
            f"chained={links.get('chained', 0)}"
        )
    for node in digest.get("nodes", ()):
        lines.append(
            f"mn{node['node_id']}: frames={node['frames']} "
            f"wakeups={node['wakeups']} sends={node['sends']} "
            f"frames/wakeup={node['frames'] / max(1, node['wakeups']):.2f}"
        )
    chaos = digest.get("chaos")
    if chaos:
        verdicts = chaos.get("verdicts")
        if verdicts:
            lines.append(f"chaos verdicts: {verdicts}")
        extra = {
            key: chaos[key]
            for key in ("adopted_grants", "repaired_slots",
                        "killed_at_s", "restarted_at_s")
            if key in chaos
        }
        if extra:
            lines.append(f"chaos: {extra}")
        if "sweep" in chaos:
            lines.append(f"sweep: {chaos['sweep']}")
    return "\n".join(lines)


def persist_digest(digest: Dict[str, Any], path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- process-wide runtime ----------------------------------------------------

_proc: Optional[ProcessObs] = None
_checked = False
_atexit_registered = False


def _flush_at_exit() -> None:
    if _proc is not None:
        try:
            _proc.flush()
        except OSError:  # pragma: no cover - best effort at teardown
            pass


def init(role: Optional[str] = None,
         directory: Optional[str] = None) -> Optional[ProcessObs]:
    """Arm per-process observability if ``REPRO_TRACE`` (or ``directory``)
    names a shard directory; inert (returns None) otherwise.

    The first armed process in a deployment publishes its start instant
    as ``REPRO_TRACE_EPOCH`` so every child it spawns measures from the
    same origin — that is what lets :func:`merge_shards` align lanes
    exactly instead of trusting per-process clocks.  Idempotent: a
    second call returns the existing hub.
    """
    global _proc, _checked, _atexit_registered
    _checked = True
    if _proc is not None:
        return _proc
    directory = directory or os.environ.get("REPRO_TRACE")
    if not directory:
        return None
    common_raw = os.environ.get("REPRO_TRACE_EPOCH")
    try:
        common = float(common_raw) if common_raw else None
    except ValueError:
        common = None
    max_events = DEFAULT_MAX_EVENTS
    try:
        max_events = int(os.environ.get("REPRO_TRACE_EVENTS", max_events))
    except ValueError:
        pass
    proc = ProcessObs(
        directory,
        role or os.environ.get("REPRO_OBS_ROLE") or f"py-{os.getpid()}",
        common_epoch_s=common,
        max_events=max_events,
    )
    if common is None:
        # This process is the deployment's origin; children inherit it.
        proc.common_epoch_s = proc.t0_epoch_s
        os.environ["REPRO_TRACE_EPOCH"] = repr(proc.t0_epoch_s)
    _proc = proc
    if not _atexit_registered:
        _atexit_registered = True
        atexit.register(_flush_at_exit)
    return proc


def current() -> Optional[ProcessObs]:
    """The armed per-process hub, or None (the inert default)."""
    if _proc is None and not _checked:
        return init()
    return _proc


def _reset() -> None:
    """Drop the process-wide hub (tests only; atexit stays registered)."""
    global _proc, _checked
    _proc = None
    _checked = False


@contextmanager
def maybe_span(name: str, cat: str = "runtime", tid: int = 0,
               args: Optional[Dict[str, Any]] = None,
               lane: Optional[str] = None):
    """Span when observability is armed; free pass-through otherwise.

    For control paths (launch, kill, restart, drain) — hot frames use
    pre-bound handles and explicit ``is not None`` guards instead.
    ``lane`` selects a memoized named lane instead of the numeric ``tid``.
    """
    proc = current()
    if proc is None:
        yield None
        return
    if lane is not None:
        tid = proc.lane_named(lane)
    with proc.span(name, cat=cat, tid=tid, args=args):
        yield proc


__all__ = [
    "DEFAULT_MAX_EVENTS",
    "ProcessObs",
    "SHARD_SCHEMA",
    "build_digest",
    "current",
    "format_digest",
    "init",
    "load_shard",
    "maybe_span",
    "merge_shards",
    "persist_digest",
    "RETRY_COUNTER_KEYS",
]
