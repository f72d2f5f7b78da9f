"""Tests for the timed-workload harness."""

import numpy as np
import pytest

from repro.bench import Feed, Harness, make_value, pack_key, preload
from repro.bench.runner import READ, UPDATE, closed_loop, phase_mean
from repro.core import DittoCluster
from repro.core.client import CacheOperationError
from repro.rdma.verbs import RdmaFaultError
from repro.sim import Engine


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


class TestPhase:
    """``Harness.phase``: one :meth:`Harness.measure` per window, one row
    per window, windows cut to end the phase on time and extended in
    whole windows while ``done`` says false."""

    @staticmethod
    def windows(duration_us, done=None, start_us=0.0):
        engine = Engine()
        engine.run(until=start_us)
        harness = Harness(engine)
        measured = []
        measure = harness.measure

        def spy(duration):
            measured.append(duration)
            return measure(duration)

        harness.measure = spy
        rows = list(harness.phase(
            "p", duration_us, 10.0,
            done=None if done is None else (lambda: done(engine.now)),
        ))
        assert len(rows) == len(measured)
        return measured, rows

    def test_fixed_phase_cuts_the_last_window(self):
        measured, rows = self.windows(25.0)
        assert measured == [10.0, 10.0, 5.0]
        assert [row["t_start_us"] for row in rows] == [0.0, 10.0, 20.0]
        assert [row["t_s"] for row in rows] == [10e-6, 20e-6, 25e-6]
        # A tail under 1 us is dropped, not run as a sliver of a window.
        assert self.windows(30.5)[0] == [10.0, 10.0, 10.0]

    def test_done_outlasting_the_phase_adds_whole_windows(self):
        measured, _ = self.windows(25.0, done=lambda now: now >= 40.0)
        assert measured == [10.0, 10.0, 5.0, 10.0, 10.0]

    def test_zero_length_phase_runs_until_done(self):
        measured, rows = self.windows(
            0.0, done=lambda now: now >= 115.0, start_us=100.0
        )
        assert measured == [10.0, 10.0]
        assert [row["t_start_us"] for row in rows] == [100.0, 110.0]
        assert self.windows(0.0, done=lambda now: True)[0] == []

    def test_rows_share_one_schema_and_come_one_window_at_a_time(self):
        engine = Engine()
        harness = Harness(engine)
        rows = harness.phase("steady", 20.0, 10.0)
        row = next(rows)
        assert engine.now == 10.0  # the second window has not run yet
        assert set(row) == {
            "t_start_us", "t_s", "phase", "mops", "hit_rate", "p50_us", "p99_us",
        }
        assert row["phase"] == "steady" and row["mops"] == 0.0

    def test_phase_mean(self):
        rows = [
            {"phase": "a", "mops": 1.0, "hit_rate": 0.5},
            {"phase": "a", "mops": 3.0, "hit_rate": 0.7},
            {"phase": "b", "mops": 9.0, "hit_rate": 0.1},
        ]
        assert phase_mean(rows, "a") == 2.0
        assert phase_mean(rows, "a", "hit_rate") == pytest.approx(0.6)
        assert phase_mean(rows, "missing") == 0.0


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
        assert sum(c.hits for c in cluster.clients) > 0
        result = harness.measure(2_000.0)
        # Every Get hits, so the window's ops are its own hits; a warm-up
        # op counted into it would show as ops beyond them (one op per
        # client may straddle the window's start).
        assert result.misses == 0 and result.hits > 0
        assert result.ops <= result.hits + len(cluster.clients)

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
