"""Trace analysis: span aggregates, flamegraphs, and the report CLI.

Works on the Chrome ``trace_event`` JSON written by
:meth:`repro.obs.observer.Observability.export_chrome`.  All durations are
**simulated microseconds** — the flamegraph shows where simulated time goes
(NIC queueing, controller CPU, client think time), not where the host CPU
goes; that is what the paper's latency-breakdown figures reason about.

The same machinery works on **wall-clock** traces from the real
substrate: ``--merge DIR`` aligns the per-process shards that each
armed hub flushes (one per launcher / memory node process, see
``REPRO_TRACE``) onto a common epoch origin and emits a single Chrome
trace with one lane group per tracer of each process, chaos fault
windows included.  A launcher's shard also carries the engines it
replayed on the sim, each on its own lane group in simulated µs.
``--validate``, ``--top``, and ``--flamegraph`` then apply to the merged
document.

Usage::

    python -m repro.obs.report .traces/fig02.trace.json --top 15
    python -m repro.obs.report trace.json --validate
    python -m repro.obs.report trace.json --flamegraph out.folded
    flamegraph.pl out.folded > flame.svg   # or any collapsed-stack viewer

    python -m repro.obs.report --merge .rtraces           # writes merged.trace.json
    python -m repro.obs.report --merge .rtraces --validate
    python -m repro.obs.report --merge .rtraces --per-node-flamegraphs flames/
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from .trace import validate_trace


def load_trace(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _lane_spans(doc: Dict[str, Any]) -> Dict[Tuple, List[Tuple[float, float, str]]]:
    """Complete spans grouped per (pid, tid) lane, sorted for a nesting walk."""
    lanes: Dict[Tuple, List[Tuple[float, float, str]]] = {}
    for event in doc.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        lanes.setdefault((event["pid"], event["tid"]), []).append(
            (float(event["ts"]), float(event.get("dur", 0.0)), event["name"])
        )
    for spans in lanes.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
    return lanes


def aggregate_spans(doc: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per-span-name totals: count, total_us, self_us, mean_us, max_us.

    ``self_us`` subtracts time covered by nested child spans, so a
    ``op.get`` span's self time is client-side work not already attributed
    to the ``rdma.*`` spans it encloses.
    """
    stats: Dict[str, Dict[str, float]] = {}

    def charge(name: str, dur: float, self_us: float) -> None:
        row = stats.setdefault(
            name,
            {"count": 0.0, "total_us": 0.0, "self_us": 0.0, "max_us": 0.0},
        )
        row["count"] += 1
        row["total_us"] += dur
        row["self_us"] += self_us
        if dur > row["max_us"]:
            row["max_us"] = dur

    for spans in _lane_spans(doc).values():
        stack: List[List] = []  # [end, name, dur, child_us]
        def drain(until: float) -> None:
            while stack and until >= stack[-1][0] - 1e-6:
                end, name, dur, child_us = stack.pop()
                charge(name, dur, max(dur - child_us, 0.0))
                if stack:
                    stack[-1][3] += dur
        for start, dur, name in spans:
            drain(start)
            stack.append([start + dur, name, dur, 0.0])
        drain(float("inf"))

    for row in stats.values():
        row["mean_us"] = row["total_us"] / row["count"] if row["count"] else 0.0
    return stats


def flamegraph_folded(doc: Dict[str, Any]) -> List[str]:
    """Collapsed-stack lines (``a;b;c <self_us>``) for flamegraph tooling.

    Stacks follow span nesting within each lane; weights are self time in
    (integer) simulated microseconds, so the rendered flame shows where
    simulated time is spent at each nesting depth.
    """
    weights: Dict[Tuple[str, ...], float] = {}
    for spans in _lane_spans(doc).values():
        stack: List[List] = []  # [end, name, dur, child_us]
        def drain(until: float) -> None:
            while stack and until >= stack[-1][0] - 1e-6:
                end, name, dur, child_us = stack.pop()
                path = tuple(frame[1] for frame in stack) + (name,)
                self_us = max(dur - child_us, 0.0)
                weights[path] = weights.get(path, 0.0) + self_us
                if stack:
                    stack[-1][3] += dur
        for start, dur, name in spans:
            drain(start)
            stack.append([start + dur, name, dur, 0.0])
        drain(float("inf"))
    return [
        f"{';'.join(path)} {int(round(weight))}"
        for path, weight in sorted(weights.items())
        if weight >= 0.5
    ]


def counter_summaries(doc: Dict[str, Any]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per counter-name, per-field mean/max over its sampled timeline."""
    series: Dict[str, Dict[str, List[float]]] = {}
    for event in doc.get("traceEvents", ()):
        if event.get("ph") != "C":
            continue
        fields = series.setdefault(event["name"], {})
        for key, value in (event.get("args") or {}).items():
            fields.setdefault(key, []).append(float(value))
    return {
        name: {
            key: {"mean": sum(vals) / len(vals), "max": max(vals)}
            for key, vals in sorted(fields.items())
        }
        for name, fields in sorted(series.items())
    }


def process_names(doc: Dict[str, Any]) -> Dict[int, str]:
    """pid → human name from ``process_name`` metadata events."""
    names: Dict[int, str] = {}
    for event in doc.get("traceEvents", ()):
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event["pid"]] = (event.get("args") or {}).get(
                "name", f"pid {event['pid']}"
            )
    return names


def split_by_process(doc: Dict[str, Any]) -> Dict[int, Dict[str, Any]]:
    """One sub-document per pid, metadata events carried into each."""
    docs: Dict[int, Dict[str, Any]] = {}
    for event in doc.get("traceEvents", ()):
        sub = docs.setdefault(
            event["pid"], {"traceEvents": [], "displayTimeUnit": "ms"}
        )
        sub["traceEvents"].append(event)
    return docs


def render_report(doc: Dict[str, Any], top: int = 20) -> str:
    """Human-readable summary: hottest spans by self time, then counters."""
    lines: List[str] = []
    stats = aggregate_spans(doc)
    rows = sorted(stats.items(), key=lambda kv: -kv[1]["self_us"])[:top]
    lines.append(
        f"{'span':<28} {'count':>10} {'self_us':>14} {'total_us':>14}"
        f" {'mean_us':>10} {'max_us':>10}"
    )
    for name, row in rows:
        lines.append(
            f"{name:<28} {int(row['count']):>10} {row['self_us']:>14.1f}"
            f" {row['total_us']:>14.1f} {row['mean_us']:>10.2f}"
            f" {row['max_us']:>10.1f}"
        )
    counters = counter_summaries(doc)
    if counters:
        lines.append("")
        lines.append("resource timelines (mean / max per sampled field):")
        for name, fields in counters.items():
            parts = ", ".join(
                f"{key}={agg['mean']:.2f}/{agg['max']:.2f}"
                for key, agg in fields.items()
            )
            lines.append(f"  {name}: {parts}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarise a simulated-time Chrome trace.",
    )
    parser.add_argument("trace", nargs="?", default="",
                        help="path to a *.trace.json file")
    parser.add_argument(
        "--merge", metavar="DIR",
        help="merge the per-process shard-*.json files under DIR "
             "(a REPRO_TRACE directory) into one wall-clock trace and "
             "operate on that instead of a trace file",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="with --merge: where to write the merged trace "
             "(default DIR/merged.trace.json)",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="check trace schema and span nesting; nonzero exit on problems",
    )
    parser.add_argument(
        "--flamegraph", metavar="OUT",
        help="write collapsed-stack lines (flamegraph.pl input) to OUT",
    )
    parser.add_argument(
        "--per-node-flamegraphs", metavar="OUTDIR",
        help="write one collapsed-stack file per process lane to OUTDIR",
    )
    parser.add_argument(
        "--top", type=int, default=20,
        help="rows in the span table (default 20)",
    )
    args = parser.parse_args(argv)
    if bool(args.trace) == bool(args.merge):
        parser.error("exactly one of TRACE or --merge DIR is required")

    if args.merge:
        from .runtime import merge_shards

        doc, info = merge_shards(args.merge)
        if not info["shards"]:
            print(f"no shard-*.json files under {args.merge}",
                  file=sys.stderr)
            return 1
        out_path = args.out or os.path.join(args.merge, "merged.trace.json")
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        label = out_path
        print(f"merged {len(info['shards'])} shards "
              f"({len(doc.get('traceEvents', []))} events) -> {out_path}")
        for skipped in info.get("skipped", ()):
            print(f"skipped unreadable shard: {skipped}", file=sys.stderr)
    else:
        doc = load_trace(args.trace)
        label = args.trace

    if args.validate:
        problems = validate_trace(doc)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        print(f"{label}: valid "
              f"({len(doc.get('traceEvents', []))} events)")
    if args.flamegraph:
        lines = flamegraph_folded(doc)
        with open(args.flamegraph, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"wrote {len(lines)} stacks to {args.flamegraph}")
    if args.per_node_flamegraphs:
        os.makedirs(args.per_node_flamegraphs, exist_ok=True)
        names = process_names(doc)
        for pid, sub in sorted(split_by_process(doc).items()):
            lines = flamegraph_folded(sub)
            if not lines:
                continue
            name = names.get(pid, f"pid-{pid}")
            safe = "".join(
                ch if ch.isalnum() or ch in "-_" else "-" for ch in name
            ).strip("-") or f"pid-{pid}"
            path = os.path.join(args.per_node_flamegraphs, f"{safe}.folded")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            print(f"wrote {len(lines)} stacks to {path}")
    if not (args.validate or args.flamegraph or args.per_node_flamegraphs):
        print(render_report(doc, top=args.top))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
