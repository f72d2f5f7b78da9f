"""Tests for the Shard-LRU / KVC baseline."""

import pytest

from repro.baselines import ShardLruCluster


def make(shards=4, capacity=64, clients=1, backoff=0.0):
    return ShardLruCluster(
        capacity_objects=capacity, num_clients=clients, shards=shards,
        backoff_us=backoff,
    )


def run(cluster, gen):
    return cluster.engine.run_process(gen)


class TestOperations:
    def test_roundtrip(self):
        cluster = make()
        client = cluster.clients[0]
        run(cluster, client.set(b"k", b"v"))
        assert run(cluster, client.get(b"k")) == b"v"
        assert client.hits == 1

    def test_update(self):
        cluster = make()
        client = cluster.clients[0]
        run(cluster, client.set(b"k", b"v1"))
        run(cluster, client.set(b"k", b"v2"))
        assert run(cluster, client.get(b"k")) == b"v2"

    def test_miss(self):
        cluster = make()
        assert run(cluster, cluster.clients[0].get(b"nope")) is None

    def test_eviction_respects_lru_order(self):
        cluster = make(shards=1, capacity=3)
        client = cluster.clients[0]
        for key in (b"a", b"b", b"c"):
            run(cluster, client.set(key, b"v"))
        run(cluster, client.get(b"a"))  # refresh a
        run(cluster, client.set(b"d", b"v"))  # evicts b
        assert run(cluster, client.get(b"b")) is None
        assert run(cluster, client.get(b"a")) == b"v"

    def test_capacity_per_shard(self):
        cluster = make(shards=4, capacity=64)
        assert cluster.capacity_per_shard == 16

    def test_lists_bounded(self):
        cluster = make(shards=2, capacity=8)
        client = cluster.clients[0]
        for i in range(64):
            run(cluster, client.set(b"key%d" % i, b"v"))
        for lru in cluster.lists:
            assert len(lru) <= cluster.capacity_per_shard


class TestLockBehaviour:
    def test_get_touches_lock_word(self):
        cluster = make(shards=1)
        client = cluster.clients[0]
        run(cluster, client.set(b"k", b"v"))
        cas_before = cluster.counters.get("rdma_cas")
        run(cluster, client.get(b"k"))
        # hit path: at least lock acquire CAS
        assert cluster.counters.get("rdma_cas") > cas_before

    def test_lock_released_after_ops(self):
        cluster = make(shards=2)
        client = cluster.clients[0]
        run(cluster, client.set(b"k", b"v"))
        run(cluster, client.get(b"k"))
        for shard in range(cluster.shards):
            assert cluster.node.read_u64(cluster.lock_addr(shard)) == 0

    def test_contention_causes_retries(self):
        cluster = ShardLruCluster(
            capacity_objects=256, num_clients=16, shards=1, backoff_us=0.0,
        )
        engine = cluster.engine

        def worker(client, base):
            for i in range(20):
                yield from client.set(b"w%d-%d" % (base, i), b"v")
                yield from client.get(b"w%d-%d" % (base, i))

        for idx, client in enumerate(cluster.clients):
            engine.spawn(worker(client, idx))
        engine.run()
        assert cluster.counters.get("lock_retries") > 0

    def test_sharding_reduces_contention(self):
        def retries(shards):
            cluster = ShardLruCluster(
                capacity_objects=512, num_clients=16, shards=shards,
                backoff_us=0.0,
            )
            engine = cluster.engine

            def worker(client, base):
                for i in range(15):
                    yield from client.set(b"w%d-%d" % (base, i), b"v")
                    yield from client.get(b"w%d-%d" % (base, i))

            for idx, client in enumerate(cluster.clients):
                engine.spawn(worker(client, idx))
            engine.run()
            return cluster.counters.get("lock_retries")

        assert retries(32) < retries(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            make(shards=0)
