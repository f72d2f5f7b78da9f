"""Extra figure: controller failover — leader loss during a live drain.

Not a paper figure — a robustness probe of the replicated controller
metadata service (``repro.core.consensus``, DESIGN §3.6).  A Ditto cluster
with a 3-replica controller group serves YCSB-A while a memory node drains
live; the moment the drain enters its copy phase, the current raft leader
is crashed for a multi-election-timeout window.  The group must elect a
successor, the in-flight drain must complete through the failover, and
client traffic must keep flowing on the data path (which never touches the
controllers) while metadata operations stall only for the election.

Reported metrics:

- **election latency** — leader crash to the successor's ``leader`` event;
- **metadata unavailability** — leader crash to the first post-crash
  committed metadata command (the window in which segment grants and
  membership flips queued);
- **hit-rate / throughput timeline** across steady state, failover, and
  recovery, showing the data path rides through;
- the migration record, the election timeline, and the final
  memory-accounting sweep.
"""

from __future__ import annotations

from typing import Dict, List

from ...core import invariant_sweep
from ...sim.faults import FaultPlan
from ...workloads import make_ycsb
from ..format import print_table
from ..runner import Feed, Harness, phase_mean, preload
from ..scale import scaled
from ..systems import LeaderCrash, build_ditto


def run(
    n_keys: int = 2_000,
    num_clients: int = 4,
    controller_replicas: int = 3,
    crash_us: float = 6_000.0,
    phase_us: float = 30_000.0,
    window_us: float = 10_000.0,
    requests_per_client: int = 40_000,
    seed: int = 13,
) -> Dict:
    cluster = build_ditto(
        2 * n_keys, num_clients, seed=seed, num_memory_nodes=3,
        faults=FaultPlan(),  # arm an inert injector; the crash loads later
        controller_replicas=controller_replicas,
    )
    group = cluster.consensus
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

    crash = LeaderCrash(cluster, crash_us)
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
        "crashed_leader": crash.leader,
        "crash_at_us": crash.at_us,
        "crash_window_us": crash_us,
        "election_latency_us": crash.election_latency_us(),
        "metadata_unavailability_us": crash.unavailability_us(),
        "elections": group.election_timeline(),
        "migration": cluster.migrations[-1].as_dict(),
        "epoch": cluster.membership.epoch,
        "node_ids": [node.node_id for node in cluster.nodes],
        "failed_ops": harness.failed_ops,
        "sweep": invariant_sweep(cluster),
        "counters": {
            key: counters[key]
            for key in sorted(counters)
            if key.startswith(("consensus", "epoch", "migrat", "mn_"))
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
        "Extra: controller failover (leader crash mid-drain)",
        ["t (s)", "phase", "Mops", "hit rate", "p99 (us)"],
        [
            (r["t_s"], r["phase"], r["mops"], r["hit_rate"], r["p99_us"])
            for r in result["timeline"]
        ],
    )
    print_table(
        "Election timeline",
        ["t (us)", "event", "replica", "term"],
        [(t, kind, rid, term) for t, kind, rid, term in result["elections"]],
    )
    m = result["migration"]
    steady, recovered = (
        phase_mean(result["timeline"], phase, "hit_rate")
        for phase in ("steady", "recovered")
    )
    print(
        f"crashed leader {result['crashed_leader']} at "
        f"{result['crash_at_us']:.0f}us for {result['crash_window_us']:.0f}us; "
        f"election latency {result['election_latency_us']:.0f}us; "
        f"metadata unavailable {result['metadata_unavailability_us']:.0f}us"
    )
    print(
        f"drain: {m['phase']} ({m['migrated_objects']} objects, "
        f"epochs {m['epoch_start']}->{m['epoch_end']}); "
        f"steady hit rate {steady:.3f} vs recovered {recovered:.3f}; "
        f"sweep: {result['sweep']['live_objects']} live objects"
    )
    return result


if __name__ == "__main__":
    main()
