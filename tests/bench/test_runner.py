"""Tests for the timed-workload harness."""

import numpy as np
import pytest

from repro.bench import Feed, Harness, make_value, pack_key, preload
from repro.bench.runner import READ, UPDATE, closed_loop
from repro.core import DittoCluster
from repro.core.client import CacheOperationError
from repro.rdma.verbs import RdmaFaultError


class TestFeed:
    def test_cycles(self):
        feed = Feed.reads([1, 2, 3])
        drawn = [feed.next()[1] for _ in range(7)]
        assert drawn == [1, 2, 3, 1, 2, 3, 1]

    def test_reads_are_reads(self):
        feed = Feed.reads([5])
        op, key = feed.next()
        assert op == READ and key == 5

    def test_from_requests(self):
        feed = Feed.from_requests([("read", 1), ("update", 2), ("insert", 3)])
        assert feed.next() == (READ, 1)
        assert feed.next() == (UPDATE, 2)
        assert feed.next()[1] == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Feed.reads([])

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            Feed(np.array([0]), np.array([1, 2]))


class TestPackKey:
    def test_eight_bytes(self):
        assert len(pack_key(0)) == 8
        assert len(pack_key(2**63)) == 8

    def test_distinct(self):
        assert pack_key(1) != pack_key(2)


def test_make_value():
    assert len(make_value(100)) == 100


class TestHarness:
    @pytest.fixture()
    def cluster(self):
        return DittoCluster(
            capacity_objects=2048, object_bytes=64, num_clients=4, seed=3
        )

    def test_preload_populates(self, cluster):
        preload(cluster.engine, cluster.clients, range(100), value_size=32)
        assert cluster.object_count == 100

    def test_measure_counts_ops_and_latency(self, cluster):
        preload(cluster.engine, cluster.clients, range(100), value_size=32)
        harness = Harness(cluster.engine, value_size=32)
        feeds = [Feed.reads(list(range(100))) for _ in cluster.clients]
        harness.launch_all(cluster.clients, feeds)
        result = harness.measure(5_000.0)
        assert result.ops > 0
        assert result.throughput_mops > 0
        assert result.get_latency.count > 0
        assert result.hits > 0 and result.misses == 0

    def test_warm_does_not_record(self, cluster):
        preload(cluster.engine, cluster.clients, range(50), value_size=32)
        harness = Harness(cluster.engine, value_size=32)
        harness.launch_all(cluster.clients, [Feed.reads(range(50))] * 4)
        harness.warm(2_000.0)
        assert harness.series.total == 0

    def test_miss_penalty_fills_cache(self, cluster):
        harness = Harness(cluster.engine, value_size=32, miss_penalty_us=500.0)
        harness.launch_all(cluster.clients, [Feed.reads(range(40))] * 4)
        result = harness.measure(20_000.0)
        assert result.misses > 0
        assert cluster.object_count > 0
        # penalized ops (the cold misses) take at least the penalty
        assert result.get_latency.percentile(100) >= 500.0

    def test_stop_halts_drivers(self, cluster):
        preload(cluster.engine, cluster.clients, range(10), value_size=32)
        harness = Harness(cluster.engine, value_size=32)
        handles = harness.launch_all(cluster.clients, [Feed.reads(range(10))] * 4)
        harness.measure(1_000.0)
        for handle in handles:
            harness.stop(handle)
        first = harness.measure(1_000.0).ops
        # drivers wind down after finishing their in-flight op
        second = harness.measure(1_000.0).ops
        assert second <= max(first, 4)

    def test_two_windows_independent(self, cluster):
        preload(cluster.engine, cluster.clients, range(100), value_size=32)
        harness = Harness(cluster.engine, value_size=32)
        harness.launch_all(cluster.clients, [Feed.reads(range(100))] * 4)
        first = harness.measure(3_000.0)
        second = harness.measure(3_000.0)
        assert abs(first.ops - second.ops) < max(first.ops, second.ops)
        assert second.duration_us == pytest.approx(3_000.0)


class _FailingClient:
    """Every Set raises ``error``; every Get misses."""

    def __init__(self, error):
        self.error = error

    def get(self, key):
        return None
        yield

    def set(self, key, value):
        raise self.error
        yield


def _run_loop(error, ops):
    left = [ops]

    def running():
        left[0] -= 1
        return left[0] >= 0

    failed, finished = [], []
    for _ in closed_loop(
        _FailingClient(error), Feed.reads(range(3)), b"v", now=lambda: 0.0,
        running=running, finished=lambda op, start: finished.append(op),
        failed=lambda op, start: failed.append(op),
    ):
        pass
    return failed, finished


class TestClosedLoop:
    def test_counts_a_cache_operation_error_as_a_failed_op(self):
        failed, finished = _run_loop(
            CacheOperationError("set", b"k", "fault retries exhausted"), 3
        )
        assert (failed, finished) == ([READ] * 3, [])

    def test_a_raw_fabric_fault_unwinds_the_loop(self):
        # The client turns every fault into a retry, a miss or a
        # CacheOperationError; one that leaks is a bug, not a failed op.
        with pytest.raises(RdmaFaultError):
            _run_loop(RdmaFaultError("lost post", verb="write"), 3)
