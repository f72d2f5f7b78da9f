"""Figure 14: throughput and p99 of Ditto vs Shard-LRU vs CM-LRU/CM-LFU on
YCSB A-D with growing client counts.

Expected shapes: Shard-LRU is lock-bound and collapses; CliqueMap saturates
on the MN CPU (Sets on A, access-info merging on B/C/D); Ditto scales until
the MN NIC message rate caps it, several times above both.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

from ..format import Verdict, claim, print_table
from ..scale import scaled
from ..systems import build, run_ycsb_workload

SYSTEMS = ("ditto", "shard-lru", "cm-lru", "cm-lfu")


def run(
    workloads: Sequence[str] = ("A", "B", "C", "D"),
    client_counts: Sequence[int] = (1, 16, 64),
    n_keys: int = 5_000,
    window_us: float = 10_000.0,
    systems: Sequence[str] = SYSTEMS,
) -> Dict:
    results: Dict[str, Dict[str, Dict[int, Dict[str, float]]]] = {}
    for workload in workloads:
        results[workload] = {}
        for system in systems:
            per_count = {}
            capacity = (4 if system == "shard-lru" else 2) * n_keys
            for count in client_counts:
                cluster = build(system, capacity, count)
                measured = run_ycsb_workload(
                    cluster, cluster.clients, workload, n_keys, window_us=window_us
                )
                per_count[count] = {
                    "mops": measured.throughput_mops,
                    "p99_us": max(
                        measured.get_latency.p99(), measured.set_latency.p99()
                    ),
                }
            results[workload][system] = per_count
    return {"results": results, "client_counts": list(client_counts)}


def main() -> Dict:
    result = run(
        n_keys=scaled(5_000, 10_000_000),
        client_counts=scaled((1, 16, 64), (1, 8, 32, 64, 128, 256)),
        window_us=scaled(10_000.0, 100_000.0),
    )
    counts = result["client_counts"]
    for workload, by_system in result["results"].items():
        print_table(
            f"Figure 14: YCSB-{workload} throughput (Mops)",
            ["system"] + [str(c) for c in counts],
            [
                [system] + [by_system[system][c]["mops"] for c in counts]
                for system in by_system
            ],
        )
        print_table(
            f"Figure 14: YCSB-{workload} p99 (us)",
            ["system"] + [str(c) for c in counts],
            [
                [system] + [by_system[system][c]["p99_us"] for c in counts]
                for system in by_system
            ],
        )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """At scale Ditto clearly beats every baseline (paper: up to 9x) and
    grows with clients; with one client on write-heavy A, CliqueMap's 1-RTT
    Sets beat Ditto's 3 RTTs (the paper's one exception)."""
    counts = result["client_counts"]
    first, top = str(counts[0]), str(counts[-1])
    for workload, by_system in result["results"].items():
        ditto = by_system["ditto"][top]["mops"]
        for baseline in ("shard-lru", "cm-lru", "cm-lfu"):
            yield claim(f"{workload}: ditto > 2 x {baseline} at {top} clients",
                        ditto, ">", 2 * by_system[baseline][top]["mops"])
        yield claim(f"{workload}: ditto at {top} clients > at {first}",
                    ditto, ">", by_system["ditto"][first]["mops"])
    a = result["results"].get("A")
    if a is not None:
        yield claim(f"A: cm-lru >= 0.8 x ditto at {first} client",
                    a["cm-lru"][first]["mops"], ">=", a["ditto"][first]["mops"] * 0.8)


if __name__ == "__main__":
    main()
