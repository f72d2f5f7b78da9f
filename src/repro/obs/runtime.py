"""Reading what armed processes left behind: shard merge and run digests.

Every armed process — the ``repro.serve`` or ``repro.runtime.validate``
launcher, one ``repro.runtime.server`` per memory node — writes its
:class:`~repro.obs.observer.Observability` hub as one shard
``shard-<role>-<pid>.json`` in the ``REPRO_TRACE`` directory.  This module
reads them back:

- :func:`merge_shards` aligns every shard in a directory onto one clock
  and emits a single Chrome trace.  Each (shard, tracer) pair gets its own
  ``pid``, so a launcher's wall-clock lanes and the lanes of a sim engine
  it replayed never share one.  Alignment: the first process to arm (the
  launcher) publishes its start instant as ``REPRO_TRACE_EPOCH``;
  children inherit it through the environment and record it in their
  shards, so offsets are exact differences of ``CLOCK_REALTIME`` captures
  on one host.  Shards lacking a common epoch fall back to aligning on
  the earliest shard's origin.  Cross-host NTP-class skew is out of
  scope (DESIGN §3.9).
- :func:`build_digest`, :func:`format_digest` and :func:`persist_digest`
  condense a loadgen or chaos report into the post-run health readout.
"""

from __future__ import annotations

import json
import os
from glob import glob
from typing import Any, Dict, List, Optional, Tuple

_SHARD_GLOB = "shard-*.json"


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
    ``pid`` per tracer of each shard, timestamps realigned onto the common
    origin) and a summary — per-shard roles/pids/event counts/offsets and
    the first merged pid, plus the files that were skipped as unparsable
    (e.g. a partial write surviving a SIGKILL outside the atomic-rename
    window, or a stray file).
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

    # Deterministic pid assignment: sort by (role, start instant, pid),
    # then number each shard's tracers in the order they appear.
    shards.sort(key=lambda item: (
        str(item[1].get("role", "")),
        float(item[1]["origin_epoch_s"]),
        int(item[1].get("pid", 0)),
    ))

    events: List[Dict[str, Any]] = []
    info_shards: List[Dict[str, Any]] = []
    dropped = 0
    next_pid = 0
    for name, shard in shards:
        offset_us = (float(shard["origin_epoch_s"]) - base) * 1e6
        role = shard.get("role", name)
        merged: Dict[Any, int] = {}
        count = 0
        for event in shard["traceEvents"]:
            if not isinstance(event, dict):
                continue
            out = dict(event)
            pid = merged.get(event.get("pid"))
            if pid is None:
                pid = merged[event.get("pid")] = next_pid + len(merged)
            out["pid"] = pid
            if out.get("ph") == "M":
                if out.get("name") == "process_name":
                    label = (out.get("args") or {}).get("name", role)
                    title = f"{role} [pid {shard.get('pid', '?')}]"
                    out["args"] = {
                        "name": title if label == role else f"{title} {label}"
                    }
            else:
                ts = out.get("ts")
                if isinstance(ts, (int, float)):
                    out["ts"] = ts + offset_us
                count += 1
            events.append(out)
        dropped += int((shard.get("trace") or {}).get("dropped", 0))
        info_shards.append({
            "file": name,
            "role": shard.get("role"),
            "pid": shard.get("pid"),
            "merged_pid": next_pid,
            "tracers": len(merged),
            "events": count,
            "offset_us": offset_us,
        })
        next_pid += max(len(merged), 1)

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
