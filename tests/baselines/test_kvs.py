"""Tests for the plain DM key-value store baseline."""

import pytest

from repro.baselines import DmKvsCluster


@pytest.fixture()
def kvs():
    return DmKvsCluster(capacity_objects=256, num_clients=2)


def run(cluster, gen):
    return cluster.engine.run_process(gen)


def test_get_missing(kvs):
    assert run(kvs, kvs.clients[0].get(b"nope")) is None
    assert kvs.clients[0].misses == 1


def test_set_get_roundtrip(kvs):
    run(kvs, kvs.clients[0].set(b"k", b"value"))
    assert run(kvs, kvs.clients[0].get(b"k")) == b"value"


def test_update_in_place(kvs):
    client = kvs.clients[0]
    run(kvs, client.set(b"k", b"v1"))
    run(kvs, client.set(b"k", b"v2"))
    assert run(kvs, client.get(b"k")) == b"v2"


def test_visible_across_clients(kvs):
    run(kvs, kvs.clients[0].set(b"shared", b"x"))
    assert run(kvs, kvs.clients[1].get(b"shared")) == b"x"


def test_many_keys(kvs):
    client = kvs.clients[0]
    for i in range(200):
        run(kvs, client.set(b"key%d" % i, b"v%d" % i))
    for i in range(200):
        assert run(kvs, client.get(b"key%d" % i)) == b"v%d" % i


def test_get_is_two_reads(kvs):
    client = kvs.clients[0]
    run(kvs, client.set(b"k", b"v"))
    before = kvs.counters.get("rdma_read")
    run(kvs, client.get(b"k"))
    assert kvs.counters.get("rdma_read") - before == 2


def test_no_cache_metadata_maintained(kvs):
    """A KVS Get issues no WRITEs/FAAs (the Fig. 2 contrast with KVC)."""
    client = kvs.clients[0]
    run(kvs, client.set(b"k", b"v"))
    writes = kvs.counters.get("rdma_write")
    faas = kvs.counters.get("rdma_faa")
    run(kvs, client.get(b"k"))
    assert kvs.counters.get("rdma_write") == writes
    assert kvs.counters.get("rdma_faa") == faas


def test_add_clients(kvs):
    kvs.add_clients(3)
    assert len(kvs.clients) == 5
