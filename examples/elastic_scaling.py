#!/usr/bin/env python3
"""Example: Ditto vs a Redis-like cluster during a load burst (Figure 1 vs
Figure 13 in miniature).

Both systems serve the same skewed read workload.  Mid-run, each is told to
double its compute.  The Redis-like cluster must migrate data and suffers a
delayed, bumpy transition; Ditto just adds client threads against the shared
memory pool and its throughput steps up within one measurement window.

Run: python examples/elastic_scaling.py
"""

from repro.baselines import RedisCluster
from repro.bench import Feed, Harness, make_value, pack_key, preload
from repro.bench.systems import build_ditto
from repro.workloads import ZipfianGenerator, make_ycsb

N_KEYS = 8_000
WINDOW_US = 100_000.0


def run_ditto() -> None:
    print("=== Ditto on disaggregated memory ===")
    cluster = build_ditto(2 * N_KEYS, num_clients=16, seed=3)
    preload(cluster.engine, cluster.clients, range(N_KEYS), value_size=232)
    harness = Harness(cluster.engine, value_size=232)

    def feed(i):
        return Feed(*make_ycsb("C", n_keys=N_KEYS, seed=i).arrays(10_000))

    base, extra = cluster.clients[:8], cluster.clients[8:]
    harness.launch_all(base, [feed(i) for i in range(8)])
    harness.warm(50_000.0)
    for step in range(3):
        r = harness.measure(WINDOW_US)
        print(f"  t={cluster.engine.now/1e6:5.2f}s  8 clients: {r.throughput_mops:5.2f} Mops")
    harness.launch_all(extra, [feed(100 + i) for i in range(8)])
    print("  >> scale compute x2 (no data migration)")
    for step in range(3):
        r = harness.measure(WINDOW_US)
        print(f"  t={cluster.engine.now/1e6:5.2f}s 16 clients: {r.throughput_mops:5.2f} Mops")


def run_redis() -> None:
    print("\n=== Redis-like monolithic cluster ===")
    cluster = RedisCluster(initial_nodes=4, migration_key_cpu_us=400.0,
                           migration_batch=32)
    cluster.load({pack_key(i): make_value(232) for i in range(N_KEYS)})
    cluster.add_clients(64)
    harness = Harness(cluster.engine, value_size=232)
    feeds = [Feed.reads(ZipfianGenerator(N_KEYS, seed=i).sample(4096)) for i in range(64)]
    harness.launch_all(cluster.clients, feeds)
    harness.warm(50_000.0)
    for step in range(3):
        r = harness.measure(WINDOW_US)
        print(f"  t={cluster.engine.now/1e6:5.2f}s  4 nodes: {r.throughput_mops:5.2f} Mops")
    cluster.scale(8)
    print("  >> scale nodes x2 (starts data migration)")
    # Hold the handle: the migration can finish inside a window, after which
    # cluster.migration is None but the handle still reports 100% moved.
    while (migration := cluster.migration) is not None:
        r = harness.measure(WINDOW_US)
        print(f"  t={cluster.engine.now/1e6:5.2f}s  migrating "
              f"({migration.fraction:4.0%} moved): {r.throughput_mops:5.2f} Mops")
    for step in range(3):
        r = harness.measure(WINDOW_US)
        print(f"  t={cluster.engine.now/1e6:5.2f}s  8 nodes: {r.throughput_mops:5.2f} Mops")


if __name__ == "__main__":
    run_ditto()
    run_redis()
