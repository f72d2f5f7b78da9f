"""Figure 16: penalized throughput on real-world-like workloads.

Clients replay trace shards; each Get miss pays the 500 µs distributed-
storage penalty before the fill Set.  Ditto's throughput should approach the
better of Ditto-LRU/Ditto-LFU and beat CliqueMap (lower hit rate and an
MN-CPU-bound Set path).
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

from ...workloads import WORKLOAD_CATALOG, footprint
from ..format import Verdict, claim, print_table
from ..scale import scaled
from ..systems import build, run_trace_workload

SYSTEMS = ("ditto", "ditto-lru", "ditto-lfu", "cm-lru", "cm-lfu")


def run(
    workload_names: Sequence[str] = (
        "webmail", "ibm", "cloudphysics", "twitter-transient", "twitter-storage",
    ),
    systems: Sequence[str] = SYSTEMS,
    n_requests: int = 60_000,
    clients: int = 16,
    capacity_frac: float = 0.1,
    miss_penalty_us: float = 500.0,
    window_us: float = 100_000.0,
    warm_us: float = 250_000.0,
    seed: int = 6,
) -> Dict:
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in workload_names:
        spec = WORKLOAD_CATALOG[name]
        trace = spec.trace(n_requests, seed=seed)
        capacity = max(int(footprint(trace) * capacity_frac), 16)
        results[name] = {}
        for system in systems:
            cluster = build(system, capacity, clients)
            measured = run_trace_workload(
                cluster,
                cluster.clients,
                trace,
                miss_penalty_us=miss_penalty_us,
                warm_us=warm_us,
                window_us=window_us,
            )
            results[name][system] = {
                "mops": measured.throughput_mops,
                "hit_rate": measured.hit_rate,
            }
    return {"results": results}


def main() -> Dict:
    result = run(
        n_requests=scaled(60_000, 10_000_000),
        clients=scaled(16, 64),
        window_us=scaled(40_000.0, 20_000_000.0),
    )
    for workload, by_system in result["results"].items():
        print_table(
            f"Figure 16: {workload} penalized throughput",
            ["system", "Mops", "hit rate"],
            [
                (system, row["mops"], row["hit_rate"])
                for system, row in by_system.items()
            ],
        )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """Ditto approaches the better fixed expert, clears the worse one, and
    outperforms CliqueMap (hit rate plus a one-sided data path)."""
    for workload, by_system in result["results"].items():
        ditto = by_system["ditto"]["mops"]
        fixed = (by_system["ditto-lru"]["mops"], by_system["ditto-lfu"]["mops"])
        best_cm = max(by_system["cm-lru"]["mops"], by_system["cm-lfu"]["mops"])
        yield claim(f"{workload}: ditto > 0.9 x worse fixed expert",
                    ditto, ">", min(fixed) * 0.9)
        yield claim(f"{workload}: ditto > 0.75 x better fixed expert",
                    ditto, ">", max(fixed) * 0.75)
        yield claim(f"{workload}: ditto > 0.9 x best cliquemap",
                    ditto, ">", best_cm * 0.9)


if __name__ == "__main__":
    main()
