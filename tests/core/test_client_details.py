"""Focused tests for DittoClient internals and statistics plumbing."""

import pytest

from repro.core import DittoCache, DittoCluster, DittoConfig
from repro.core import layout as L
from repro.core.client import COUNTER_REFRESH_PERIOD, decode_ext, encode_ext


class TestExtCodec:
    def test_roundtrip(self):
        fields = ("a", "b")
        raw = encode_ext(fields, {"a": 1.5, "b": -2.0})
        assert decode_ext(fields, raw) == {"a": 1.5, "b": -2.0}

    def test_missing_fields_default_zero(self):
        raw = encode_ext(("a", "b"), {"a": 3.0})
        assert decode_ext(("a", "b"), raw) == {"a": 3.0, "b": 0.0}

    def test_infinity_survives(self):
        raw = encode_ext(("irr",), {"irr": float("inf")})
        assert decode_ext(("irr",), raw)["irr"] == float("inf")


class TestCounterCache:
    def test_counter_refreshed_on_eviction(self):
        cluster = DittoCluster(
            capacity_objects=16, object_bytes=64, num_clients=1, seed=4
        )
        client = cluster.clients[0]
        run = cluster.engine.run_process
        for i in range(40):
            run(client.set(b"k%d" % i, b"v" * 40))
        assert client._counter_fresh
        # Forced in-bucket evictions skip the history counter.
        history_evictions = client.evictions - client.forced_bucket_evictions
        assert client._counter_cache == history_evictions

    def test_counter_read_periodically_on_misses(self):
        cluster = DittoCluster(
            capacity_objects=64, object_bytes=64, num_clients=1, seed=4
        )
        client = cluster.clients[0]
        run = cluster.engine.run_process
        for i in range(COUNTER_REFRESH_PERIOD + 2):
            run(client.get(b"missing%d" % i))
        # at least the initial refresh read happened
        assert client._counter_fresh


class TestVerbCounts:
    def test_get_hit_is_two_reads(self):
        cluster = DittoCluster(
            capacity_objects=64, object_bytes=64, num_clients=1, seed=4
        )
        client = cluster.clients[0]
        run = cluster.engine.run_process
        run(client.set(b"k", b"v"))
        reads_before = cluster.counters.get("rdma_read")
        run(client.get(b"k"))
        assert cluster.counters.get("rdma_read") - reads_before == 2

    def test_insert_is_read_write_cas(self):
        cluster = DittoCluster(
            capacity_objects=64, object_bytes=64, num_clients=1, seed=4
        )
        client = cluster.clients[0]
        run = cluster.engine.run_process
        # Warm the allocator so the segment RPC is off this measurement, and
        # drain the warm Set's async metadata post.
        run(client.set(b"warm", b"v"))
        cluster.engine.run()
        before = {
            verb: cluster.counters.get(f"rdma_{verb}")
            for verb in ("read", "write", "cas")
        }
        run(client.set(b"k", b"v"))
        cluster.engine.run()  # drain async metadata posts
        delta = {
            verb: cluster.counters.get(f"rdma_{verb}") - before[verb]
            for verb in ("read", "write", "cas")
        }
        # Paper's Set: bucket READ, object WRITE, slot CAS (+1 async
        # metadata WRITE).
        assert delta["read"] == 1
        assert delta["cas"] == 1
        assert delta["write"] == 2

    def test_eviction_sampling_is_one_read_with_sfht(self):
        cluster = DittoCluster(
            capacity_objects=8, object_bytes=64, num_clients=1, seed=4
        )
        client = cluster.clients[0]
        run = cluster.engine.run_process
        # Fill the byte budget completely (each object is one 64 B block,
        # the budget is sized at two blocks per configured object).
        for i in range(16):
            run(client.set(b"k%d" % i, b"v" * 40))
        # Next insert must evict: count FAA on the history counter.
        faa_before = cluster.counters.get("rdma_faa")
        run(client.set(b"overflow", b"v" * 40))
        cluster.engine.run()
        assert client.evictions >= 1
        assert cluster.counters.get("rdma_faa") >= faa_before + 1


class TestStats:
    def test_stats_keys(self):
        cache = DittoCache(capacity_objects=32, seed=1)
        cache.set("a", "1")
        cache.get("a")
        stats = cache.stats()
        for key in (
            "hits", "misses", "hit_rate", "objects", "evictions",
            "regrets", "used_bytes", "limit_bytes", "sim_time_us",
        ):
            assert key in stats

    def test_multi_mn_via_facade(self):
        cache = DittoCache(capacity_objects=64, num_memory_nodes=2, seed=1)
        cache.set("k", "v")
        assert cache.get("k") == b"v"
        assert len(cache.cluster.nodes) == 2
