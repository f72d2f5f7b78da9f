"""Fault-tolerant client paths: retries, degradation, repair, crash recovery.

The chaos counterpart of ``test_client.py``: everything here runs under an
armed :class:`~repro.sim.faults.FaultInjector`.  The memory-accounting sweep
(``repro.core.invariants``) is the oracle — after every scenario quiesces,
no granted byte may be leaked and the budget ledger must match the table.
"""

import pytest

from repro.bench.runner import Feed, Harness, pack_key, preload
from repro.bench.systems import build_ditto
from repro.core import CacheOperationError, invariant_sweep
from repro.rdma import NodeUnavailable
from repro.sim import (
    ClientCrash,
    DropWindow,
    FaultPlan,
    LatencySpike,
    NodeOutage,
)

VALUE = b"v" * 64


def drive(cluster, gen):
    return cluster.engine.run_process(gen)


def sleep_until(cluster, t_us):
    def proc():
        delay = t_us - cluster.engine.now
        if delay > 0:
            yield delay

    cluster.engine.run_process(proc())


def insert_feed(keys):
    return Feed.from_requests([("insert", k) for k in keys])


class TestGetDegradation:
    def test_get_misses_through_when_node_down(self):
        plan = FaultPlan(outages=(NodeOutage(0, 0.0, 1e9),))
        cluster = build_ditto(64, 1, seed=1, faults=plan)
        client = cluster.clients[0]
        assert drive(cluster, client.get(b"key")) is None
        counters = cluster.counters.as_dict()
        assert counters["fault_miss_through"] == 1
        assert counters["fault_node_unavailable"] == 1
        assert client.misses == 1

    def test_get_retries_through_transient_drops(self):
        plan = FaultPlan(drops=(DropWindow(0.0, 150.0, verbs=("read",)),), seed=2)
        cluster = build_ditto(64, 1, seed=2, faults=plan)
        client = cluster.clients[0]
        result = drive(cluster, client.get(b"key"))
        assert result is None  # uncached; the point is it didn't raise
        counters = cluster.counters.as_dict()
        assert counters["fault_verb_timeout"] >= 1
        assert counters["fault_retry"] >= 1
        assert cluster.engine.now > 100.0  # burned at least one verb timeout

    def test_latency_spike_slows_but_completes(self):
        plan = FaultPlan(spikes=(LatencySpike(0.0, 1e9, extra_us=40.0),))
        cluster = build_ditto(64, 1, seed=3, faults=plan)
        client = cluster.clients[0]
        drive(cluster, client.set(b"key", VALUE))
        assert drive(cluster, client.get(b"key")) == VALUE
        assert cluster.counters.as_dict()["fault_latency_spike"] > 0


class TestSetFailures:
    def test_set_raises_structured_error_when_node_down(self):
        plan = FaultPlan(outages=(NodeOutage(0, 0.0, 1e9),))
        cluster = build_ditto(64, 1, seed=4, faults=plan)
        client = cluster.clients[0]
        with pytest.raises(CacheOperationError) as excinfo:
            drive(cluster, client.set(b"key", VALUE))
        err = excinfo.value
        assert err.op == "set"
        assert err.key == b"key"
        assert err.fault_attempts == cluster.config.fault_retries + 1
        assert isinstance(err.cause, NodeUnavailable)
        assert err.elapsed_us > 0
        assert "set(b'key')" in str(err)
        # the aborted attempts must not leak anything
        assert invariant_sweep(cluster)["live_bytes"] == 0

    def test_op_deadline_caps_a_set(self):
        plan = FaultPlan(drops=(DropWindow(0.0, 1e9),))
        cluster = build_ditto(
            64, 1, seed=5, faults=plan, op_deadline_us=150.0, fault_retries=100
        )
        client = cluster.clients[0]
        with pytest.raises(CacheOperationError) as excinfo:
            drive(cluster, client.set(b"key", VALUE))
        assert "deadline" in str(excinfo.value)

    def test_backoff_grows_and_caps(self):
        cluster = build_ditto(64, 1, seed=6, faults=FaultPlan())
        client = cluster.clients[0]
        b1 = client._backoff_us(1)
        assert 20.0 <= b1 <= 30.0  # base 20 + up to 50% jitter
        b7 = client._backoff_us(7)
        assert b7 <= cluster.config.retry_backoff_max_us * 1.5
        cluster.config.retry_backoff_us = 0.0
        assert client._backoff_us(3) == 0.0


class TestOutOfMemoryRecovery:
    def _exhaust_pool(self, cluster):
        """Make every future segment RPC fail and every bump cursor dry."""
        for node in cluster.nodes:
            node.controller.state.next_free = node.end
            node.controller.state.free_segments.clear()
        for client in cluster.clients:
            for alloc in client.alloc.allocators:
                if alloc._bump_addr is not None:
                    remainder = alloc._bump_end - alloc._bump_addr
                    if remainder > 0:
                        alloc._spare.append((alloc._bump_addr, remainder))
                    alloc._bump_addr = alloc._bump_end

    def test_oom_triggers_eviction_then_retry(self):
        cluster = build_ditto(64, 1, seed=7, faults=FaultPlan(), segment_bytes=4096)
        client = cluster.clients[0]
        for k in range(16):
            drive(cluster, client.set(pack_key(k), VALUE))
        self._exhaust_pool(cluster)
        assert drive(cluster, client.set(b"fresh-key", VALUE)) is True
        counters = cluster.counters.as_dict()
        assert counters["alloc_oom"] >= 1
        assert drive(cluster, client.get(b"fresh-key")) == VALUE

    def test_oom_with_nothing_evictable_is_structured(self):
        cluster = build_ditto(64, 1, seed=8, faults=FaultPlan(), segment_bytes=4096)
        client = cluster.clients[0]
        self._exhaust_pool(cluster)  # empty cache: nothing to evict
        with pytest.raises(CacheOperationError) as excinfo:
            drive(cluster, client.set(b"key", VALUE))
        assert "exhausted" in str(excinfo.value)


class TestLeaseRepair:
    def _cluster_with_suspects(self):
        """Insert under a write-drop window so some metadata writes vanish."""
        plan = FaultPlan(
            drops=(DropWindow(0.0, 50_000.0, prob=0.4, verbs=("write",)),), seed=9
        )
        cluster = build_ditto(128, 1, seed=9, faults=plan)
        client = cluster.clients[0]

        def inserts():
            for k in range(40):
                try:
                    yield from client.set(pack_key(k), VALUE)
                except CacheOperationError:
                    pass  # foreground write lost to the same window

        drive(cluster, inserts())
        cluster.engine.run()  # drain in-flight async metadata writes
        return cluster, client

    def _suspect_slots(self, cluster):
        """Slots matching the repair predicate: object with all-zero metadata."""
        from repro.core import layout as L

        lay = cluster.layout
        out = []
        for index in range(lay.total_slots):
            raw = cluster.node.read_bytes(lay.slot_addr(index), L.SLOT_SIZE)
            slot = L.parse_slot(index, lay.slot_addr(index), raw)
            if (
                slot.is_object
                and slot.key_hash == 0
                and slot.insert_ts == 0
                and slot.last_ts == 0
            ):
                out.append(slot)
        return out

    def test_dropped_metadata_write_creates_suspects(self):
        cluster, _ = self._cluster_with_suspects()
        assert cluster.counters.as_dict()["fault_post_dropped"] >= 1
        assert len(self._suspect_slots(cluster)) >= 1

    def test_repair_scan_reclaims_after_lease(self):
        cluster, client = self._cluster_with_suspects()
        suspects = len(self._suspect_slots(cluster))
        sleep_until(cluster, 60_000.0)  # leave the drop window
        drive(cluster, client.repair_scan())  # first sighting starts leases
        assert len(self._suspect_slots(cluster)) == suspects  # lease not up
        sleep_until(cluster, cluster.engine.now + cluster.config.repair_lease_us + 1)
        drive(cluster, client.repair_scan())  # second sighting reclaims
        assert self._suspect_slots(cluster) == []
        assert cluster.counters.as_dict()["lease_repair"] == suspects
        invariant_sweep(cluster)

    def test_active_object_self_heals_out_of_suspicion(self):
        cluster, client = self._cluster_with_suspects()
        sleep_until(cluster, 60_000.0)
        suspect = self._suspect_slots(cluster)
        assert suspect
        # A Get finds the half-installed object by fingerprint and re-posts
        # its timestamp, healing it before any lease can expire.
        for k in range(40):
            drive(cluster, client.get(pack_key(k)))
        cluster.engine.run()  # drain the async metadata writes
        assert self._suspect_slots(cluster) == []


class TestCrashStorm:
    N_CLIENTS = 26
    N_CRASHES = 20

    def _run_crash_storm(self, seed=11):
        cluster = build_ditto(
            256,
            self.N_CLIENTS,
            seed=seed,
            faults=FaultPlan(),
            segment_bytes=8192,
        )
        harness = Harness(cluster.engine, value_size=64, tolerate_failures=True)
        # Heavy Set contention: every client hammers the same small key range.
        feeds = [
            insert_feed([(i * 17 + j) % 96 for j in range(400)])
            for i in range(self.N_CLIENTS)
        ]
        harness.launch_all(cluster.clients, feeds)
        crashes = tuple(
            ClientCrash(client_index=i, at_us=1_500.0 + 311.0 * i)
            for i in range(self.N_CRASHES)
        )
        harness.schedule_crashes(cluster, crashes)
        cluster.engine.run(until=40_000.0)
        harness.stop_all()
        cluster.engine.run()  # drain drivers, recoveries, async posts
        return cluster, harness

    def test_storm_leaves_no_leaks(self):
        cluster, _ = self._run_crash_storm()
        counters = cluster.counters.as_dict()
        assert counters["client_crash"] == self.N_CRASHES
        assert counters["crash_recovery"] == self.N_CRASHES
        assert sum(1 for c in cluster.clients if c.dead) == self.N_CRASHES
        report = invariant_sweep(cluster)
        assert report["granted_bytes"] > 0
        assert report["live_bytes"] == cluster.budget.used_bytes

    def test_storm_reclaims_interrupted_blocks(self):
        cluster, _ = self._run_crash_storm()
        counters = cluster.counters.as_dict()
        # With 20 kills inside Set-heavy loops, at least some must have died
        # holding an uncommitted block or budget.
        assert counters.get("crash_block_reclaimed", 0) >= 1

    def test_survivors_keep_working_after_storm(self):
        cluster, _ = self._run_crash_storm()
        survivor = next(c for c in cluster.clients if not c.dead)
        drive(cluster, survivor.set(b"post-storm", VALUE))
        assert drive(cluster, survivor.get(b"post-storm")) == VALUE
        invariant_sweep(cluster)


class TestDeterminismUnderFaults:
    def _scenario(self, plan_seed=13):
        plan = FaultPlan(
            drops=(DropWindow(3_000.0, 8_000.0, prob=0.5),),
            spikes=(LatencySpike(5_000.0, 9_000.0, extra_us=10.0),),
            outages=(NodeOutage(0, 10_000.0, 12_000.0),),
            client_crashes=(
                ClientCrash(0, 6_000.0),
                ClientCrash(1, 7_000.0),
            ),
            seed=plan_seed,
        )
        cluster = build_ditto(128, 6, seed=3, faults=plan)
        harness = Harness(
            cluster.engine,
            value_size=64,
            miss_penalty_us=100.0,
            tolerate_failures=True,
        )
        feeds = [
            Feed.from_requests(
                [("insert", (i * 31 + j) % 64) for j in range(50)]
                + [("read", (i + j) % 64) for j in range(200)]
            )
            for i in range(6)
        ]
        harness.launch_all(cluster.clients, feeds)
        harness.schedule_crashes(cluster, plan.client_crashes)
        cluster.engine.run(until=20_000.0)
        harness.stop_all()
        cluster.engine.run()
        return (
            dict(cluster.counters.as_dict()),
            cluster.engine.now,
            cluster.hits,
            cluster.misses,
            harness.failed_ops,
        )

    def test_same_seed_and_plan_is_bit_identical(self):
        assert self._scenario(13) == self._scenario(13)

    def test_plan_seed_changes_the_run(self):
        assert self._scenario(13) != self._scenario(14)
