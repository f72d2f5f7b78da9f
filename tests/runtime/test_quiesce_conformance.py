"""The quiesce steps, one suite on both substrates (DESIGN §3.7).

Crash recovery on the sim and the chaos drill on live processes end a run
with the same cluster calls: ``reconcile_grants`` returns every grant the
controllers hold but a client never recorded, ``repair_leases`` scrubs the
table, and ``invariants.sweep(cluster)`` checks the accounting.  Each test
body here runs once on :class:`~repro.core.cache.DittoCluster` and once on
a :class:`~repro.runtime.cluster.RealCluster` over two live memory nodes.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import invariants
from repro.core.cache import DittoCluster
from repro.runtime.client import drive
from repro.runtime.cluster import RealCluster
from repro.runtime.harness import RealClusterHarness

CAPACITY = 256
NODES = 2


class SimSubstrate:
    def __init__(self):
        self.cluster = DittoCluster(
            capacity_objects=CAPACITY, num_clients=1, num_memory_nodes=NODES
        )

    def run(self, gen):
        return self.cluster.engine.run_process(gen)

    def settle(self):
        self.cluster.engine.run()

    def close(self):
        pass


class RealSubstrate:
    def __init__(self):
        self.harness = RealClusterHarness(
            capacity_objects=CAPACITY, num_clients=1, num_memory_nodes=NODES
        )
        self.harness.launch()
        self.loop = asyncio.new_event_loop()
        self.cluster = RealCluster(self.harness.descriptor())
        self.cluster.add_clients(1)

    def run(self, gen):
        return self.loop.run_until_complete(drive(gen))

    def settle(self):
        self.loop.run_until_complete(self.cluster.engine.drain_background())

    def close(self):
        try:
            self.loop.run_until_complete(self.cluster.aclose())
            self.loop.close()
        finally:
            self.harness.shutdown()
        assert self.harness.leak_report()["clean"]


@pytest.fixture(params=[SimSubstrate, RealSubstrate], ids=["sim", "real"])
def substrate(request):
    sub = request.param()
    try:
        yield sub
    finally:
        sub.close()


def test_an_unrecorded_grant_is_a_leak_until_reconciled(substrate):
    cluster, run = substrate.cluster, substrate.run
    (client,) = cluster.clients
    for i in range(8):
        run(client.set(b"key-%d" % i, b"v" * 100))
    substrate.settle()
    invariants.sweep(cluster)

    # An alloc RPC under the client's id whose answer it never records.
    run(client.ep.rpc(
        cluster.nodes[1], "alloc_segment",
        (cluster.segment_bytes, client.client_id),
    ))
    with pytest.raises(invariants.InvariantViolation, match="leak"):
        invariants.sweep(cluster)

    assert run(cluster.reconcile_grants(client, client)) == 1
    assert run(cluster.reconcile_grants(client, client)) == 0
    assert run(cluster.repair_leases(client)) == 0
    substrate.settle()
    summary = invariants.sweep(cluster)
    assert summary["live_objects"] == 8
