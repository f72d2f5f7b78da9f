"""Extra figure: throughput and hit rate through a memory-node outage.

Not a paper figure — a robustness probe of the reproduction.  A two-MN Ditto
cluster serves a read-mostly workload; after warmup, memory node 1 (half the
object heap — the hash table lives on node 0) becomes unreachable for a
fixed window and then comes back.  During the outage every Get that needs
node 1 degrades to a miss (``NodeUnavailable`` short-circuits the fault
retries), pays the backing-store penalty, and refills the object — striping
naturally lands the refill on the surviving node.  Throughput dips while
clients burn verb timeouts and miss penalties; once the window passes, hit
rate and throughput recover without any explicit repair step.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...sim.faults import FaultPlan, NodeOutage
from ...workloads import make_ycsb
from ..format import print_table
from ..runner import Feed, Harness, phase_mean, preload
from ..scale import scaled
from ..systems import build_ditto

#: Default plan, relative to the end of warmup: node 1 is unreachable for
#: the middle third of a three-phase timeline.
def default_plan(phase_us: float) -> FaultPlan:
    return FaultPlan(outages=(NodeOutage(node_id=1, start_us=phase_us,
                                         end_us=2 * phase_us),))


def run(
    n_keys: int = 4_000,
    num_clients: int = 8,
    phase_us: float = 60_000.0,
    window_us: float = 10_000.0,
    miss_penalty_us: float = 500.0,
    requests_per_client: int = 16_000,
    seed: int = 11,
    plan_dict: Optional[Dict] = None,
) -> Dict:
    plan = (
        FaultPlan.from_dict(plan_dict)
        if plan_dict is not None
        else default_plan(phase_us)
    )
    cluster = build_ditto(
        2 * n_keys,
        num_clients,
        seed=seed,
        num_memory_nodes=2,
        faults=FaultPlan(),  # arm an inert injector; the plan loads post-warmup
    )
    preload(cluster.engine, cluster.clients, range(n_keys), value_size=232)
    harness = Harness(
        cluster.engine,
        value_size=232,
        miss_penalty_us=miss_penalty_us,
        tolerate_failures=True,
    )
    feeds = [
        Feed(*make_ycsb("B", n_keys=n_keys, seed=seed + i, client_id=i)
             .arrays(requests_per_client))
        for i in range(num_clients)
    ]
    harness.launch_all(cluster.clients, feeds)
    harness.warm(20_000.0)

    # Arm the plan relative to "now" and schedule any client crashes it has.
    start = cluster.engine.now
    cluster.fault_injector.load(plan, offset_us=start)
    harness.schedule_crashes(cluster, plan.client_crashes, offset_us=start)

    timeline: List[Dict] = []

    for label in ("healthy", "outage", "recovered"):
        timeline.extend(harness.phase(label, phase_us, window_us))
    harness.stop_all()
    return {
        "timeline": timeline,
        "plan": plan.to_dict(),
        "failed_ops": harness.failed_ops,
        "counters": dict(cluster.counters.as_dict()),
    }


def main() -> Dict:
    result = run(
        n_keys=scaled(4_000, 1_000_000),
        num_clients=scaled(8, 64),
        phase_us=scaled(60_000.0, 10_000_000.0),
        window_us=scaled(10_000.0, 1_000_000.0),
        requests_per_client=scaled(16_000, 500_000),
    )
    print_table(
        "Extra: fault recovery (MN 1 unreachable for the middle phase)",
        ["t (s)", "phase", "Mops", "hit rate", "p99 (us)"],
        [
            (r["t_s"], r["phase"], r["mops"], r["hit_rate"], r["p99_us"])
            for r in result["timeline"]
        ],
    )
    healthy = phase_mean(result["timeline"], "healthy")
    outage = phase_mean(result["timeline"], "outage")
    recovered = phase_mean(result["timeline"], "recovered")
    print(
        f"phase means (Mops): healthy={healthy:.3f} "
        f"outage={outage:.3f} recovered={recovered:.3f}; "
        f"failed ops: {result['failed_ops']}"
    )
    return result


if __name__ == "__main__":
    main()
