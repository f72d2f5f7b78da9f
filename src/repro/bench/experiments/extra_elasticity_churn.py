"""Extra figure: memory-node churn — repeated add/drain cycles under faults.

Not a paper figure — a robustness probe of the elasticity subsystem.  A
Ditto cluster serves a write-heavy workload (YCSB-A, so the epoch fence is
actually exercised) while memory nodes churn: each cycle adds a fresh node
to the pool and then live-drains the oldest data-bearing node, with a
seeded controller-RPC fault window armed across the drain.  The timeline
tracks throughput and tail latency through every membership change; the
summary reports per-drain migrated bytes, epoch advance, and the final
memory-accounting sweep, proving no block leaked or stayed double-owned
across the churn.
"""

from __future__ import annotations

from typing import Dict, List

from ...core import invariant_sweep
from ...sim.faults import FaultPlan, RpcFailure
from ...workloads import make_ycsb
from ..format import print_table
from ..runner import Feed, Harness, preload
from ..scale import scaled
from ..systems import build_ditto


def run(
    n_keys: int = 2_000,
    num_clients: int = 4,
    cycles: int = 2,
    phase_us: float = 30_000.0,
    window_us: float = 10_000.0,
    rpc_fault_prob: float = 0.3,
    rpc_fault_us: float = 2_000.0,
    requests_per_client: int = 40_000,
    seed: int = 13,
) -> Dict:
    cluster = build_ditto(
        2 * n_keys, num_clients, seed=seed, num_memory_nodes=2,
        faults=FaultPlan(),  # arm an inert injector; windows load per cycle
    )
    preload(cluster.engine, cluster.clients, range(n_keys), value_size=232)
    harness = Harness(
        cluster.engine, value_size=232, miss_penalty_us=200.0,
        tolerate_failures=True,
    )
    feeds = [
        Feed.from_requests(
            make_ycsb("A", n_keys=n_keys, seed=seed + i, client_id=i)
            .requests(requests_per_client)
        )
        for i in range(num_clients)
    ]
    harness.launch_all(cluster.clients, feeds)
    harness.warm(15_000.0)

    timeline: List[Dict] = []

    timeline.extend(harness.phase("steady", phase_us, window_us))
    drain_target = 1  # node 0 hosts the hash table and never drains
    for cycle in range(cycles):
        node = cluster.add_memory_node()
        timeline.extend(harness.phase(f"cycle{cycle}-grown", phase_us, window_us))
        # A controller-RPC fault window opens right as the drain starts:
        # membership refreshes, segment grants, and grant reassignment all
        # have to retry through it.
        if rpc_fault_prob > 0.0:
            cluster.fault_injector.load(
                FaultPlan(
                    rpc_failures=(
                        RpcFailure(0.0, rpc_fault_us, prob=rpc_fault_prob),
                    ),
                    seed=seed + cycle,
                ),
                offset_us=cluster.engine.now,
            )
        drain = cluster.remove_memory_node(drain_target)
        timeline.extend(harness.phase(
            f"cycle{cycle}-drain", phase_us, window_us,
            done=lambda: drain.finished,
        ))
        drain_target = node.node_id
    harness.stop_all()
    cluster.engine.run()

    counters = cluster.counters.as_dict()
    return {
        "timeline": timeline,
        "migrations": [record.as_dict() for record in cluster.migrations],
        "epoch": cluster.membership.epoch,
        "node_ids": [node.node_id for node in cluster.nodes],
        "failed_ops": harness.failed_ops,
        "sweep": invariant_sweep(cluster),
        "counters": {
            key: counters[key]
            for key in sorted(counters)
            if key.startswith(("epoch", "migrat", "mn_", "stale", "fault"))
        },
    }


def main() -> Dict:
    result = run(
        n_keys=scaled(2_000, 200_000),
        num_clients=scaled(4, 16),
        cycles=scaled(2, 4),
        phase_us=scaled(30_000.0, 2_000_000.0),
        window_us=scaled(10_000.0, 500_000.0),
        requests_per_client=scaled(40_000, 2_000_000),
    )
    print_table(
        "Extra: elasticity churn (add/drain cycles under RPC faults)",
        ["t (s)", "phase", "Mops", "hit rate", "p99 (us)"],
        [
            (r["t_s"], r["phase"], r["mops"], r["hit_rate"], r["p99_us"])
            for r in result["timeline"]
        ],
    )
    print_table(
        "Drains",
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
    sweep = result["sweep"]
    print(
        f"final epoch: {result['epoch']}; surviving nodes: "
        f"{result['node_ids']}; failed ops: {result['failed_ops']}; "
        f"sweep: {sweep['live_objects']} live objects, "
        f"{sweep['live_bytes']}B live of {sweep['granted_bytes']}B granted"
    )
    return result


if __name__ == "__main__":
    main()
