"""Tests for the CliqueMap baseline (hybrid RMA/RPC)."""

import pytest

from repro.baselines import CliqueMapCluster


def make(policy="lru", capacity=8, clients=1, sync_every=4):
    return CliqueMapCluster(
        policy=policy, capacity_objects=capacity, num_clients=clients,
        sync_every=sync_every,
    )


def run(cluster, gen):
    return cluster.engine.run_process(gen)


class TestOperations:
    def test_roundtrip(self):
        cm = make()
        client = cm.clients[0]
        run(cm, client.set(b"k", b"value"))
        assert run(cm, client.get(b"k")) == b"value"
        assert cm.hits == 1

    def test_miss(self):
        cm = make()
        assert run(cm, cm.clients[0].get(b"nope")) is None
        assert cm.misses == 1

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make(policy="arc")

    def test_server_owns_eviction_lru(self):
        cm = make(policy="lru", capacity=2)
        client = cm.clients[0]
        for key in (b"a", b"b", b"c"):
            run(cm, client.set(key, b"v"))
        assert run(cm, client.get(b"a")) is None  # precise LRU evicted a
        assert run(cm, client.get(b"c")) == b"v"

    def test_server_owns_eviction_lfu(self):
        cm = make(policy="lfu", capacity=2, sync_every=1)
        client = cm.clients[0]
        run(cm, client.set(b"hot", b"v"))
        run(cm, client.set(b"cold", b"v"))
        for _ in range(3):
            run(cm, client.get(b"hot"))  # sync_every=1: merges immediately
        run(cm, client.set(b"new", b"v"))
        assert run(cm, client.get(b"hot")) == b"v"
        assert run(cm, client.get(b"cold")) is None

    def test_set_consumes_server_cpu(self):
        cm = make()
        assert cm.server.sets == 0
        run(cm, cm.clients[0].set(b"k", b"v"))
        assert cm.server.sets == 1
        assert cm.counters.get("rdma_rpc") == 1


class TestAccessInfoSync:
    def test_accesses_batched_until_sync(self):
        cm = make(capacity=16, sync_every=4)
        client = cm.clients[0]
        run(cm, client.set(b"k", b"v"))
        rpc_after_set = cm.counters.get("rdma_rpc")
        for _ in range(3):
            run(cm, client.get(b"k"))
        assert cm.counters.get("rdma_rpc") == rpc_after_set  # buffered
        run(cm, client.get(b"k"))  # 4th access flushes the batch
        assert cm.counters.get("rdma_rpc") == rpc_after_set + 1
        assert cm.server.merged_entries == 4

    def test_sync_affects_server_recency(self):
        cm = make(policy="lru", capacity=2, sync_every=1)
        client = cm.clients[0]
        run(cm, client.set(b"a", b"v"))
        run(cm, client.set(b"b", b"v"))
        run(cm, client.get(b"a"))  # merged immediately: a most recent
        run(cm, client.set(b"c", b"v"))  # evicts b
        assert run(cm, client.get(b"b")) is None
        assert run(cm, client.get(b"a")) == b"v"


class TestServerCores:
    def test_more_cores_serve_sets_faster(self):
        def elapsed(cores):
            cm = CliqueMapCluster(capacity_objects=64, num_clients=8, server_cores=cores)
            engine = cm.engine

            def worker(client, base):
                for i in range(20):
                    yield from client.set(b"w%d-%d" % (base, i), b"v")

            for idx, client in enumerate(cm.clients):
                engine.spawn(worker(client, idx))
            engine.run()
            return engine.now

        assert elapsed(8) < elapsed(1)
