"""The DM-tier catalog: each name builds the system, with the arguments,
the figures have always run under it."""

import pytest

from repro.baselines import CliqueMapCluster, DmKvsCluster, ShardLruCluster
from repro.bench.hitrate import make_hit_cache
from repro.bench.systems import build
from repro.cachesim import ExactLFUCache, ExactLRUCache
from repro.core import DittoCluster

CAPACITY, CLIENTS = 256, 3


@pytest.mark.parametrize("name, policies", [
    ("ditto", ("lru", "lfu")),
    ("ditto-lru", ("lru",)),
    ("ditto-lfu", ("lfu",)),
    ("ditto-fifo", ("fifo",)),
])
def test_ditto_names(name, policies):
    cluster = build(name, CAPACITY, CLIENTS)
    assert type(cluster) is DittoCluster
    assert cluster.config.policies == policies
    assert cluster.capacity_objects == CAPACITY
    assert len(cluster.clients) == CLIENTS


@pytest.mark.parametrize("name, policy", [("cm-lru", "lru"), ("cm-lfu", "lfu")])
def test_cliquemap_names(name, policy):
    cluster = build(name, CAPACITY, CLIENTS)
    assert type(cluster) is CliqueMapCluster
    assert cluster.server.policy == policy
    assert cluster.server.cache.capacity == CAPACITY
    assert cluster.controller.cores == 1
    assert cluster.sync_every == 64
    assert len(cluster.clients) == CLIENTS


@pytest.mark.parametrize("name, shards, backoff_us", [
    ("kvc", 1, 0.0),
    ("kvc-s", 32, 5.0),
    ("shard-lru", 32, 5.0),
])
def test_shard_lru_names(name, shards, backoff_us):
    cluster = build(name, CAPACITY, CLIENTS)
    assert type(cluster) is ShardLruCluster
    assert cluster.shards == shards
    assert cluster.backoff_us == backoff_us
    assert cluster.capacity_per_shard == CAPACITY // shards
    assert len(cluster.clients) == CLIENTS


def test_kvs_name():
    cluster = build("kvs", CAPACITY, CLIENTS)
    assert type(cluster) is DmKvsCluster
    assert cluster.table.num_buckets == 2 * CAPACITY // 8
    assert len(cluster.clients) == CLIENTS


@pytest.mark.parametrize("name", ["nope", "redis", "cm", ""])
def test_unknown_name_raises(name):
    with pytest.raises(ValueError):
        build(name, CAPACITY, CLIENTS)


@pytest.mark.parametrize("name", ["ditto", "ditto-lru", "ditto-lfu", "cm-lru", "cm-lfu"])
def test_a_name_means_the_same_policies_on_both_tiers(name):
    dm = build(name, CAPACITY, CLIENTS)
    hit = make_hit_cache(name, CAPACITY)
    if isinstance(dm, DittoCluster):
        assert tuple(p.name for p in hit.policies) == dm.config.policies
    else:
        exact = {ExactLRUCache: "lru", ExactLFUCache: "lfu"}[type(hit)]
        assert exact == dm.server.policy
