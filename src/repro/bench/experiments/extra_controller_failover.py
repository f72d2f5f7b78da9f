"""Extra figure: metadata-node crash during a live drain.

Not a paper figure — a robustness probe of the metadata node (DESIGN §3.6).
A Ditto cluster of three memory nodes serves YCSB-A while node 2 drains
live; the moment the drain enters its copy phase, node 0's controller
crashes for a window (``RpcFailure(node_id=0)``): segment grants, weight
folds and membership reads on node 0 fail while one-sided verbs still
reach its heap.  Clients and the drain ride the window out on their
fault-retry paths; the drain must complete and the sweep find every grant.

Reported metrics:

- **metadata unavailability** — crash to the first membership read node 0
  answers after it (a probe every 100 us);
- **refused RPCs** — metadata RPCs the crashed controller dropped;
- **hit-rate / throughput timeline** across steady state, the crash, and
  recovery, showing the data path rides through;
- the migration record, failed ops and the final memory-accounting sweep.
"""

from __future__ import annotations

from typing import Dict, List

from ...core import invariant_sweep
from ...sim.faults import FaultPlan
from ...workloads import make_ycsb
from ..format import print_table
from ..runner import Feed, Harness, phase_mean, preload
from ..scale import scaled
from ..systems import MetadataNodeCrash, build_ditto


def run(
    n_keys: int = 2_000,
    num_clients: int = 4,
    crash_us: float = 6_000.0,
    phase_us: float = 30_000.0,
    window_us: float = 10_000.0,
    requests_per_client: int = 40_000,
    seed: int = 13,
) -> Dict:
    cluster = build_ditto(
        2 * n_keys, num_clients, seed=seed, num_memory_nodes=3,
        faults=FaultPlan(),  # arm an inert injector; the crash loads later
    )
    preload(cluster.engine, cluster.clients, range(n_keys), value_size=232)
    harness = Harness(
        cluster.engine, value_size=232, miss_penalty_us=200.0,
        tolerate_failures=True,
    )
    feeds = [
        Feed(*make_ycsb("A", n_keys=n_keys, seed=seed + i, client_id=i)
             .arrays(requests_per_client))
        for i in range(num_clients)
    ]
    harness.launch_all(cluster.clients, feeds)
    harness.warm(15_000.0)

    timeline: List[Dict] = []

    timeline.extend(harness.phase("steady", phase_us, window_us))

    crash = MetadataNodeCrash(cluster, crash_us)
    drain = cluster.remove_memory_node(2, on_phase=crash.on_phase)
    timeline.extend(harness.phase(
        "failover", phase_us, window_us, done=lambda: drain.finished
    ))
    timeline.extend(harness.phase("recovered", phase_us, window_us))
    harness.stop_all()
    cluster.engine.run()

    counters = cluster.counters.as_dict()
    return {
        "timeline": timeline,
        "crash_at_us": crash.at_us,
        "crash_window_us": crash_us,
        "metadata_unavailability_us": crash.unavailability_us,
        "refused_rpcs": cluster.fault_injector.verdicts["drop"],
        "migration": cluster.migrations[-1].as_dict(),
        "epoch": cluster.membership.epoch,
        "node_ids": [node.node_id for node in cluster.nodes],
        "failed_ops": harness.failed_ops,
        "sweep": invariant_sweep(cluster),
        "counters": {
            key: counters[key]
            for key in sorted(counters)
            if key.startswith(("epoch", "fault", "migrat", "mn_"))
        },
    }


def main() -> Dict:
    result = run(
        n_keys=scaled(2_000, 200_000),
        num_clients=scaled(4, 16),
        phase_us=scaled(30_000.0, 2_000_000.0),
        window_us=scaled(10_000.0, 500_000.0),
        requests_per_client=scaled(40_000, 2_000_000),
    )
    print_table(
        "Extra: metadata-node crash mid-drain",
        ["t (s)", "phase", "Mops", "hit rate", "p99 (us)"],
        [
            (r["t_s"], r["phase"], r["mops"], r["hit_rate"], r["p99_us"])
            for r in result["timeline"]
        ],
    )
    m = result["migration"]
    steady, recovered = (
        phase_mean(result["timeline"], phase, "hit_rate")
        for phase in ("steady", "recovered")
    )
    print(
        f"node 0's controller crashed at {result['crash_at_us']:.0f}us for "
        f"{result['crash_window_us']:.0f}us; metadata unavailable "
        f"{result['metadata_unavailability_us']:.0f}us; "
        f"{result['refused_rpcs']} metadata RPCs refused"
    )
    print(
        f"drain: {m['phase']} ({m['migrated_objects']} objects, "
        f"epochs {m['epoch_start']}->{m['epoch_end']}); "
        f"steady hit rate {steady:.3f} vs recovered {recovered:.3f}; "
        f"sweep: {result['sweep']['live_objects']} live objects; "
        f"failed ops {result['failed_ops']}"
    )
    return result


if __name__ == "__main__":
    main()
