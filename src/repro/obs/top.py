"""``python -m repro.obs.top`` — live per-node view of a real cluster.

Polls every memory node's ``__stats__`` control RPC (the same throwaway-
socket channel the harness uses for chaos arm/disarm, so it works
against any cluster a descriptor file points at — including one this
process did not launch) and renders a per-node table: uptime, served-op
counts, per-verb rates computed from counter deltas between polls, and
service-time p50/p99 from the servers' streaming histograms.

Nodes launched without ``REPRO_TRACE`` run dark by design (the zero-cost
contract); ``--arm`` sends ``__stats_arm__`` first, which switches on
metrics-only instrumentation at runtime — no restart, no trace shard.

Example::

    python -m repro.serve --memory-nodes 2 --descriptor /tmp/cluster.json &
    python -m repro.obs.top --descriptor /tmp/cluster.json --arm
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

from .metrics import render_prometheus

#: Verb columns in display order (matches the server's _VERB_BY_OP names).
_VERBS = ("read", "write", "cas", "write_cas", "faa", "rpc", "ping")


def fetch_stats(nodes: List[Dict[str, Any]],
                timeout_s: float = 2.0) -> List[Optional[Dict[str, Any]]]:
    """One ``__stats__`` poll per node; ``None`` marks an unreachable one."""
    from ..runtime.harness import control_rpc

    out: List[Optional[Dict[str, Any]]] = []
    for node in nodes:
        try:
            out.append(control_rpc(
                node["host"], node["port"], "__stats__", None, timeout_s
            ))
        except (OSError, RuntimeError):
            out.append(None)
    return out


def arm_stats(nodes: List[Dict[str, Any]], timeout_s: float = 2.0) -> int:
    """Send ``__stats_arm__`` to every reachable node; count successes."""
    from ..runtime.harness import control_rpc

    armed = 0
    for node in nodes:
        try:
            control_rpc(node["host"], node["port"], "__stats_arm__", None,
                        timeout_s)
            armed += 1
        except (OSError, RuntimeError):
            pass
    return armed


def _metric_rows(stats: Dict[str, Any], kind: str) -> List[Dict[str, Any]]:
    metrics = stats.get("metrics") or {}
    return metrics.get(kind, [])


def _verb_counts(stats: Optional[Dict[str, Any]]) -> Dict[str, int]:
    if not stats:
        return {}
    return {
        row["labels"].get("verb", "?"): row["value"]
        for row in _metric_rows(stats, "counters")
        if row["name"] == "verbs"
    }


def _verb_latency(stats: Optional[Dict[str, Any]]) -> Dict[str, Dict]:
    if not stats:
        return {}
    return {
        row["labels"].get("verb", "?"): row
        for row in _metric_rows(stats, "histograms")
        if row["name"] == "verb.service_us"
    }


def render_table(
    nodes: List[Dict[str, Any]],
    stats: List[Optional[Dict[str, Any]]],
    prev: List[Optional[Dict[str, Any]]],
    interval_s: float,
) -> str:
    """The per-node table for one poll.

    Rates are deltas of the servers' per-verb counters against the
    previous poll (absolute totals on the first poll, marked ``Σ``);
    ``f/wake`` is frames served per socket wake-up over the same span —
    how well the node's frames batch; p50/p99 come from the cumulative
    service-time histograms.
    """
    header = (
        f"{'node':>5} {'pid':>7} {'up_s':>7} {'conns':>5} {'ops':>9} "
        f"{'ops/s':>9} {'f/wake':>6} {'jrnl':>5} {'gate':>16} "
        f"{'verb':>9} {'rate/s':>9} {'p50_us':>8} {'p99_us':>8}"
    )
    lines = [header]
    for node, now_stats, prev_stats in zip(nodes, stats, prev):
        node_id = node.get("node_id", "?")
        if now_stats is None:
            lines.append(f"{node_id:>5} {'-':>7} {'DOWN':>7}")
            continue
        counts = _verb_counts(now_stats)
        latency = _verb_latency(now_stats)
        prev_counts = _verb_counts(prev_stats)
        delta_ops = now_stats["ops_served"] - (
            prev_stats["ops_served"] if prev_stats else 0
        )
        delta_wakeups = now_stats["wakeups"] - (
            prev_stats["wakeups"] if prev_stats else 0
        )
        rate_mark = "" if prev_stats else "Σ"
        verdicts = now_stats.get("chaos_verdicts") or {}
        gate = (
            ",".join(f"{k}={v}" for k, v in sorted(verdicts.items()) if v)
            or ("armed" if now_stats.get("chaos_armed") else "-")
        )
        base = (
            f"{node_id:>5} {now_stats['pid']:>7} "
            f"{now_stats['uptime_s']:>7.1f} "
            f"{now_stats['connections']:>5} "
            f"{now_stats['ops_served']:>9} "
            f"{rate_mark + str(round(delta_ops / interval_s)):>9} "
            f"{delta_ops / max(1, delta_wakeups):>6.2f} "
            f"{now_stats['journal_entries']:>5} {gate[:16]:>16}"
        )
        verb_lines = []
        for verb in _VERBS:
            total = counts.get(verb)
            if not total:
                continue
            delta = total - prev_counts.get(verb, 0 if prev_stats else 0)
            hist = latency.get(verb, {})
            verb_lines.append(
                f"{verb:>9} "
                f"{rate_mark + str(round(delta / interval_s)):>9} "
                f"{hist.get('p50', 0):>8.0f} {hist.get('p99', 0):>8.0f}"
            )
        if not verb_lines:
            note = (
                "(armed, no verbs yet)"
                if now_stats.get("obs_armed")
                else "(obs dark — run with --arm)"
            )
            lines.append(f"{base} {note}")
        else:
            pad = " " * len(base)
            lines.append(f"{base} {verb_lines[0]}")
            lines.extend(f"{pad} {line}" for line in verb_lines[1:])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.top",
        description="live per-node stats for a running real-substrate "
                    "cluster",
    )
    parser.add_argument("--descriptor", required=True,
                        help="cluster descriptor JSON written by "
                             "repro.serve --descriptor")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="seconds between polls (default 1)")
    parser.add_argument("--count", type=int, default=0,
                        help="number of polls before exiting (0 = forever)")
    parser.add_argument("--arm", action="store_true",
                        help="send __stats_arm__ first: switch on "
                             "metrics-only instrumentation on nodes that "
                             "were launched dark")
    parser.add_argument("--json", action="store_true",
                        help="emit raw __stats__ payloads as JSON lines")
    parser.add_argument("--prometheus", action="store_true",
                        help="emit Prometheus text exposition instead of "
                             "the table")
    parser.add_argument("--timeout", type=float, default=2.0)
    args = parser.parse_args(argv)

    with open(args.descriptor, "r", encoding="utf-8") as fh:
        descriptor = json.load(fh)
    nodes = descriptor.get("nodes", [])
    if not nodes:
        print("descriptor lists no nodes", file=sys.stderr)
        return 2

    if args.arm:
        armed = arm_stats(nodes, args.timeout)
        print(f"# armed {armed}/{len(nodes)} nodes", file=sys.stderr)

    prev: List[Optional[Dict[str, Any]]] = [None] * len(nodes)
    polls = 0
    try:
        while True:
            t0 = time.monotonic()
            stats = fetch_stats(nodes, args.timeout)
            if all(entry is None for entry in stats):
                print("no node reachable", file=sys.stderr)
                return 1
            if args.json:
                print(json.dumps(
                    {"poll": polls, "nodes": stats}, sort_keys=True
                ), flush=True)
            elif args.prometheus:
                for node, entry in zip(nodes, stats):
                    if entry and entry.get("metrics"):
                        sys.stdout.write(render_prometheus(
                            entry["metrics"],
                            {"node": f"mn{node.get('node_id', '?')}"},
                        ))
                sys.stdout.flush()
            else:
                print(render_table(nodes, stats, prev, args.interval),
                      flush=True)
            prev = stats
            polls += 1
            if args.count and polls >= args.count:
                return 0
            time.sleep(max(0.0, args.interval - (time.monotonic() - t0)))
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # downstream pager/head closed the pipe; that's a clean exit
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
