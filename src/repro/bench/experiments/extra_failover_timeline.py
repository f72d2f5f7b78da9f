"""Extra figure: the fig13 elasticity timeline with a metadata-node crash
overlaid.

Not a paper figure — a composition of two of its claims.  Figure 13 shows
Ditto riding through compute and memory scaling with level throughput;
DESIGN §3.6 adds that a crash of the metadata node (node 0's controller)
stalls only metadata.  This experiment runs the *same* elasticity schedule
as fig13 (compute up, compute down, memory up, memory drain-down), crashes
node 0's controller the moment the drain enters its copy phase, and
overlays the metadata-unavailability window on the throughput timeline:
every sample window that overlaps the outage is flagged, so the plot shows
exactly which part of the timeline ran without metadata — and that the
data path kept serving through it.
"""

from __future__ import annotations

from typing import Dict, List

from ...core import invariant_sweep
from ...sim.faults import FaultPlan
from ...workloads import make_ycsb
from ..format import print_table
from ..runner import Feed, Harness, preload
from ..scale import scaled
from ..systems import MetadataNodeCrash, build_ditto


def run(
    n_keys: int = 3_000,
    base_clients: int = 4,
    extra_clients: int = 4,
    crash_us: float = 6_000.0,
    phase_us: float = 40_000.0,
    window_us: float = 10_000.0,
    seed: int = 17,
) -> Dict:
    total = base_clients + extra_clients
    cluster = build_ditto(
        2 * n_keys, total, seed=seed, max_capacity_objects=4 * n_keys,
        num_memory_nodes=2,
        faults=FaultPlan(),  # inert injector; the crash loads later
    )
    preload(cluster.engine, cluster.clients, range(n_keys), value_size=232)
    harness = Harness(
        cluster.engine, value_size=232, tolerate_failures=True
    )

    def feed(i: int) -> Feed:
        # YCSB-A: the write fraction keeps segment-grant metadata traffic
        # flowing, so the unavailability window is actually observable.
        return Feed(*make_ycsb("A", n_keys=n_keys, seed=seed + i, client_id=i)
                    .arrays(16_000))

    base = cluster.clients[:base_clients]
    added = cluster.clients[base_clients:]
    base_handles = harness.launch_all(
        base, [feed(i) for i in range(base_clients)]
    )
    harness.warm(30_000.0)

    timeline: List[Dict] = []

    timeline.extend(harness.phase("base-compute", phase_us, window_us))
    extra_handles = harness.launch_all(
        added, [feed(base_clients + i) for i in range(extra_clients)]
    )
    timeline.extend(harness.phase("compute-scaled-up", phase_us, window_us))
    for handle in extra_handles:
        harness.stop(handle)
    timeline.extend(harness.phase("compute-scaled-down", phase_us, window_us))

    cluster.add_memory_node()
    cluster.resize_memory(4 * n_keys)
    timeline.extend(harness.phase("memory-scaled-up", phase_us, window_us))

    crash = MetadataNodeCrash(cluster, crash_us)
    drain = cluster.remove_memory_node(1, on_phase=crash.on_phase)
    timeline.extend(harness.phase(
        "memory-scaled-down", phase_us, window_us, done=lambda: drain.finished
    ))
    cluster.resize_memory(2 * n_keys)
    timeline.extend(harness.phase("recovered", phase_us, window_us))

    for handle in base_handles:
        harness.stop(handle)
    harness.stop_all()
    cluster.engine.run()

    crash_at = crash.at_us
    unavailability = crash.unavailability_us
    outage_end = crash_at + (
        unavailability if unavailability is not None else crash_us
    )
    for row in timeline:
        row["in_outage"] = (
            row["t_start_us"] < outage_end and row["t_s"] * 1e6 > crash_at
        )

    return {
        "timeline": timeline,
        "crash_at_us": crash_at,
        "crash_window_us": crash_us,
        "metadata_unavailability_us": unavailability,
        "refused_rpcs": cluster.fault_injector.verdicts["drop"],
        "outage_windows": sum(1 for row in timeline if row["in_outage"]),
        "migration": cluster.migrations[-1].as_dict(),
        "epoch": cluster.membership.epoch,
        "failed_ops": harness.failed_ops,
        "sweep": invariant_sweep(cluster),
    }


def main() -> Dict:
    result = run(
        n_keys=scaled(3_000, 200_000),
        base_clients=scaled(4, 16),
        extra_clients=scaled(4, 16),
        phase_us=scaled(40_000.0, 2_000_000.0),
        window_us=scaled(10_000.0, 500_000.0),
    )
    print_table(
        "Extra: elasticity timeline with a metadata-node crash overlaid",
        ["t (s)", "phase", "Mops", "p99 (us)", "in outage"],
        [
            (r["t_s"], r["phase"], r["mops"], r["p99_us"],
             "*" if r["in_outage"] else "")
            for r in result["timeline"]
        ],
    )
    print(
        f"node 0's controller crashed at {result['crash_at_us']:.0f}us "
        f"(window {result['crash_window_us']:.0f}us); metadata unavailable "
        f"{result['metadata_unavailability_us']:.0f}us; "
        f"{result['refused_rpcs']} metadata RPCs refused; "
        f"{result['outage_windows']} sample windows overlap the outage"
    )
    m = result["migration"]
    print(
        f"drain rode through: {m['phase']} ({m['migrated_objects']} objects, "
        f"epochs {m['epoch_start']}->{m['epoch_end']}); "
        f"sweep: {result['sweep']['live_objects']} live objects; "
        f"failed ops {result['failed_ops']}"
    )
    return result


if __name__ == "__main__":
    main()
