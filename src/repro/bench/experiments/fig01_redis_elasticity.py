"""Figure 1: Redis throughput/latency while scaling the cluster out and in.

The paper's headline motivation: re-sharding a monolithic cache migrates
data, so scaling 32→64→32 nodes (i) delays the throughput gain and the
resource reclamation by minutes of migration and (ii) dips throughput and
inflates p99 while CPUs copy keys.  Scaled down (8→16→8 nodes by default),
the same four signals appear: stable → migration (dip) → improved → shrink
migration (reclamation delay) → back to baseline.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ...baselines import RedisCluster
from ...workloads import ZipfianGenerator
from ..format import Verdict, claim, print_table
from ..runner import Feed, Harness, make_value, pack_key, phase_mean
from ..scale import scaled


def run(
    nodes: int = 8,
    scale_to: int = 16,
    n_keys: int = 20_000,
    clients: int = 192,
    phase_us: float = 1_000_000.0,
    window_us: float = 250_000.0,
    op_cpu_us: float = 10.0,
    migration_key_cpu_us: float = 150.0,
    migration_batch: int = 8,
    seed: int = 4,
) -> Dict:
    # op_cpu_us ~ 10 us matches a 1-core Redis VM (~100 Kops/s); the client
    # count is chosen so the cluster is server-bound, as in the paper (512
    # client threads against 32 single-core nodes).  Per-key migration cost
    # includes serialization + network + re-indexing; real Redis clusters
    # move O(1k) keys/s/node.
    cluster = RedisCluster(
        initial_nodes=nodes,
        op_cpu_us=op_cpu_us,
        migration_batch=migration_batch,
        migration_key_cpu_us=migration_key_cpu_us,
    )
    cluster.load({pack_key(i): make_value(232) for i in range(n_keys)})
    cluster.add_clients(clients)
    harness = Harness(cluster.engine, value_size=232)
    feeds = [
        Feed.reads(ZipfianGenerator(n_keys, seed=seed + i).sample(4096))
        for i in range(clients)
    ]
    harness.launch_all(cluster.clients, feeds)
    harness.warm(100_000.0)

    timeline: List[Dict] = []

    def record(rows: Iterator[Dict]) -> None:
        # Each window's row takes the node count before the next one runs.
        for row in rows:
            row["provisioned_nodes"] = cluster.provisioned_nodes
            timeline.append(row)

    def migrated() -> bool:
        return cluster.migration is None

    record(harness.phase("stable-small", phase_us, window_us))
    cluster.scale(scale_to)
    record(harness.phase("scale-out-migration", 0.0, window_us, done=migrated))
    record(harness.phase("stable-large", phase_us, window_us))
    cluster.scale(nodes)
    record(harness.phase("scale-in-migration", 0.0, window_us, done=migrated))
    record(harness.phase("stable-small-again", phase_us, window_us))

    migrations = [
        {
            "direction": "out" if m.new_n > m.old_n else "in",
            "duration_s": (m.finished_at - m.started_at) / 1e6,
            "keys_moved": m.total_moving,
        }
        for m in cluster.migrations_done
    ]
    return {"timeline": timeline, "migrations": migrations}


def main() -> Dict:
    result = run(phase_us=scaled(800_000.0, 180_000_000.0))
    print_table(
        "Figure 1: Redis during resource adjustment",
        ["t (s)", "phase", "Mops", "p99 (us)", "nodes"],
        [
            (r["t_s"], r["phase"], r["mops"], r["p99_us"], r["provisioned_nodes"])
            for r in result["timeline"]
        ],
    )
    print_table(
        "Figure 1: migration cost",
        ["direction", "duration (s)", "keys moved"],
        [(m["direction"], m["duration_s"], m["keys_moved"]) for m in result["migrations"]],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """Redis' gain from scaling out is delayed by the migration, and
    scale-in holds the large node count until its migration finishes."""
    timeline = result["timeline"]
    migrations = {m["direction"]: m for m in result["migrations"]}
    yield claim("both migrations ran", sorted(migrations), "==", ["in", "out"])
    for direction in ("out", "in"):
        yield claim(f"scale-{direction} migration takes > 0.1 s",
                    migrations[direction]["duration_s"], ">", 0.1)
    small = phase_mean(timeline, "stable-small")
    large = phase_mean(timeline, "stable-large")
    during_out = phase_mean(timeline, "scale-out-migration")
    yield claim("stable-large > 1.1 x stable-small", large, ">", small * 1.1)
    yield claim("scale-out migration < stable-large", during_out, "<", large)
    in_mig_rows = [r for r in timeline if r["phase"] == "scale-in-migration"]
    yield claim("scale-in migration windows", len(in_mig_rows), ">", 0)
    # The final window may close just after reclamation; all earlier windows
    # still hold the large node count.
    held = [r["provisioned_nodes"] for r in in_mig_rows[:-1]]
    yield ("scale-in keeps > 8 nodes until done", all(n > 8 for n in held),
           f"nodes {held}")


if __name__ == "__main__":
    main()
