"""Figure 13: Ditto's throughput under dynamic compute and memory scaling.

The DM payoff: adding CPU cores (client threads) raises throughput
*immediately* and removing them reclaims resources immediately — compute
carries no data, so no bytes move.  Memory scaling is a real membership
change: scale-up adds a memory node to the pool at a new epoch, and
scale-down *drains* a data-bearing node through the epoch-fenced live
migration (`repro.core.elasticity`) while clients keep serving traffic.
The timeline shows throughput staying level through both, and the summary
reports how many bytes the drain migrated and how far the epoch advanced —
small and fast next to the Redis baseline's whole-keyspace reshuffle.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ...workloads import make_ycsb
from ..format import Verdict, claim, print_table
from ..runner import Feed, Harness, phase_mean, preload
from ..scale import scaled
from ..systems import build_ditto


def run(
    n_keys: int = 5_000,
    base_clients: int = 8,
    extra_clients: int = 8,
    phase_us: float = 60_000.0,
    window_us: float = 20_000.0,
    seed: int = 9,
) -> Dict:
    total = base_clients + extra_clients
    cluster = build_ditto(
        2 * n_keys, total, seed=seed, max_capacity_objects=4 * n_keys,
        num_memory_nodes=2,
    )
    preload(cluster.engine, cluster.clients, range(n_keys), value_size=232)
    harness = Harness(cluster.engine, value_size=232)

    def feed(i: int) -> Feed:
        return Feed(*make_ycsb("C", n_keys=n_keys, seed=seed + i).arrays(16_000))

    base = cluster.clients[:base_clients]
    added = cluster.clients[base_clients:]
    base_handles = harness.launch_all(base, [feed(i) for i in range(base_clients)])
    harness.warm(50_000.0)

    timeline: List[Dict] = []
    timeline.extend(harness.phase("base-compute", phase_us, window_us))
    extra_handles = harness.launch_all(
        added, [feed(base_clients + i) for i in range(extra_clients)]
    )
    timeline.extend(harness.phase("compute-scaled-up", phase_us, window_us))
    for handle in extra_handles:
        harness.stop(handle)
    timeline.extend(harness.phase("compute-scaled-down", phase_us, window_us))

    # Memory scale-up: a third node joins the pool at a new epoch, and the
    # budget grows to match.  No data moves — new allocations simply start
    # landing on the new node.
    cluster.add_memory_node()
    cluster.resize_memory(4 * n_keys)
    timeline.extend(harness.phase("memory-scaled-up", phase_us, window_us))

    # Memory scale-down: drain node 1 (it holds roughly half the preloaded
    # objects) through the two-phase live migration while traffic continues,
    # then shrink the budget back.
    drain = cluster.remove_memory_node(1)
    timeline.extend(harness.phase(
        "memory-scaled-down", phase_us, window_us, done=lambda: drain.finished
    ))
    cluster.resize_memory(2 * n_keys)

    for handle in base_handles:
        harness.stop(handle)
    counters = cluster.counters.as_dict()
    return {
        "timeline": timeline,
        "migrations": [record.as_dict() for record in cluster.migrations],
        "epoch": cluster.membership.epoch,
        "epoch_bumps": counters.get("epoch_bump", 0),
        "stale_epoch_retries": counters.get("stale_epoch_retry", 0),
    }


def main() -> Dict:
    result = run(
        n_keys=scaled(5_000, 10_000_000),
        base_clients=scaled(8, 32),
        extra_clients=scaled(8, 32),
        phase_us=scaled(60_000.0, 180_000_000.0),
        window_us=scaled(20_000.0, 1_000_000.0),
    )
    print_table(
        "Figure 13: Ditto under compute/memory scaling",
        ["t (s)", "phase", "Mops", "p50 (us)", "p99 (us)"],
        [
            (r["t_s"], r["phase"], r["mops"], r["p50_us"], r["p99_us"])
            for r in result["timeline"]
        ],
    )
    print_table(
        "Memory-node drains during the run",
        ["node", "phase", "objects", "KiB moved", "CAS lost", "passes", "epochs"],
        [
            (
                m["node_id"], m["phase"], m["migrated_objects"],
                m["migrated_bytes"] / 1024.0, m["cas_lost"], m["passes"],
                f"{m['epoch_start']}->{m['epoch_end']}",
            )
            for m in result["migrations"]
        ],
    )
    print(
        f"final epoch: {result['epoch']} "
        f"({result['epoch_bumps']} membership bumps, "
        f"{result['stale_epoch_retries']} stale-epoch retries)"
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """Compute scaling takes effect at once; a memory node joins without
    disturbing throughput and drains live, without collapse."""
    timeline = result["timeline"]
    base = phase_mean(timeline, "base-compute")
    up = phase_mean(timeline, "compute-scaled-up")
    down = phase_mean(timeline, "compute-scaled-down")
    mem_up = phase_mean(timeline, "memory-scaled-up")
    mem_down = phase_mean(timeline, "memory-scaled-down")
    yield claim("compute scale-up > 1.3 x base", up, ">", base * 1.3)
    yield claim("compute scale-down back to base (|down - base| / base < 0.25)",
                abs(down - base) / base, "<", 0.25)
    yield claim("memory scale-up keeps throughput (|mem_up - down| / down < 0.2)",
                abs(mem_up - down) / down, "<", 0.2)
    yield claim("memory scale-down > 0.6 x compute-scaled-down",
                mem_down, ">", down * 0.6)
    (migration,) = result["migrations"]
    yield claim("the drain is done", migration["phase"], "==", "done")
    yield claim("the drain moved objects", migration["migrated_objects"], ">", 0)
    yield claim("the drain advanced the epoch", migration["epoch_end"], ">",
                migration["epoch_start"])
    yield claim("membership bumps >= 3", result["epoch_bumps"], ">=", 3)
    # "Immediate", unlike Redis' minutes of migration.
    first_up = next(r for r in timeline if r["phase"] == "compute-scaled-up")
    yield claim("first scaled-up window > 1.2 x base", first_up["mops"], ">",
                base * 1.2)


if __name__ == "__main__":
    main()
