"""With one client and one seed the benchmark's loop issues exactly the
verbs ``runtime.loadgen.run_load`` issues."""

import asyncio

from repro.runtime.client import WallClockRuntime, drive
from repro.runtime.cluster import RealCluster
from repro.runtime.harness import RealClusterHarness
from repro.runtime.loadgen import run_load

from workloads import REAL, ClientStream, Tally, client_loop, value_for

SEED, OPS, KEYS, PRELOAD = 11, 600, 300, 64


def _launch():
    return RealClusterHarness(capacity_objects=128, num_clients=1, seed=SEED)


async def _bench_loop(descriptor):
    runtime = WallClockRuntime()
    cluster = RealCluster(descriptor, runtime=runtime)
    (client,) = cluster.add_clients(1)
    try:
        for key_id in range(PRELOAD):
            await drive(client.set(b"key-%d" % key_id, value_for(key_id)))
        tally = Tally()
        stream = ClientStream(REAL["real-write-evict"].read_ratio, KEYS,
                              SEED * 1_000_003)
        await client_loop(client, stream, tally, ops=OPS)
        await runtime.drain_background()
    finally:
        await cluster.aclose()
    return tally, cluster


def test_same_rdma_counters_as_run_load():
    with _launch() as harness:
        report = asyncio.run(run_load(
            harness.descriptor(), clients=1, ops=OPS, n_keys=KEYS,
            read_ratio=REAL["real-write-evict"].read_ratio, preload=PRELOAD,
            seed=SEED,
        ))
    assert harness.leak_report()["clean"]
    with _launch() as harness:
        tally, cluster = asyncio.run(_bench_loop(harness.descriptor()))
    assert harness.leak_report()["clean"]

    assert (tally.attempted, tally.failed, tally.wrong_bytes) == (OPS, 0, 0)
    assert len(tally.get_us) + len(tally.set_us) == OPS
    ours = {k: v for k, v in cluster.counters.as_dict().items()
            if k.startswith("rdma_")}
    theirs = {k: v for k, v in report["counters"].items()
              if k.startswith("rdma_")}
    assert ours == theirs
    assert cluster.hits + cluster.misses > 0
    assert report["evictions"] == sum(c.evictions for c in cluster.clients) > 0
