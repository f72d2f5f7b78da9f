"""Tests for epoch-fenced memory-node elasticity (healthy paths).

Fault interactions during a drain live in ``test_elasticity_faults.py``;
this file covers the protocol pieces (membership table, epoch fence), node
add/remove on live data, graceful client departure, active shrink
convergence, and byte-identity of runs that never change membership.
"""

import pytest

from repro.core import (
    DittoCache,
    DittoCluster,
    EpochFence,
    MembershipTable,
    StaleEpoch,
    invariant_sweep,
)
from repro.core.elasticity import ACTIVE, DRAINING, RETIRED


def make_cache(**kwargs):
    defaults = dict(
        capacity_objects=256, object_bytes=128, num_clients=2, seed=5,
        num_memory_nodes=2,
    )
    defaults.update(kwargs)
    return DittoCache(**defaults)


def fill(cache, n, start=0):
    values = {}
    for i in range(start, start + n):
        key, value = f"key{i}", bytes([i % 251]) * 100
        cache.set(key, value)
        values[key] = value
    return values


def check(cache, values):
    """Every key is either correct or a clean miss; returns the hit count."""
    hits = 0
    for key, value in values.items():
        got = cache.get(key)
        if got is not None:
            assert got == value
            hits += 1
    return hits


class TestMembershipTable:
    def test_every_mutation_bumps_the_epoch(self):
        table = MembershipTable([0, 1])
        assert table.epoch == 0
        assert table.add(2) == 1
        assert table.set_state(1, DRAINING) == 2
        assert table.set_state(1, RETIRED) == 3
        assert table.epoch == 3

    def test_active_ids_and_snapshot(self):
        table = MembershipTable([0, 1, 2])
        table.set_state(1, DRAINING)
        assert table.active_ids() == (0, 2)
        epoch, entries = table.snapshot()
        assert epoch == 1
        assert dict(entries) == {0: ACTIVE, 1: DRAINING, 2: ACTIVE}

    def test_rejects_unknown_node_and_state(self):
        table = MembershipTable([0])
        with pytest.raises(KeyError):
            table.set_state(9, DRAINING)
        with pytest.raises(ValueError):
            table.set_state(0, "gone")


class TestEpochFence:
    def test_write_fence_blocks_mutations_not_reads(self):
        fence = EpochFence()
        fence.fence_writes(1000, 2000, node_id=1)
        fence.advance(1)
        fence.check_read(1500, "read", 1)  # reads keep flowing
        with pytest.raises(StaleEpoch) as exc:
            fence.check_write(1500, "write", 1)
        assert exc.value.epoch == 1
        fence.check_write(2000, "write", 1)  # outside the range

    def test_retire_blocks_everything_and_lifts_write_fence(self):
        fence = EpochFence()
        fence.fence_writes(1000, 2000, node_id=1)
        fence.retire(1000, 2000, node_id=1)
        fence.advance(2)
        with pytest.raises(StaleEpoch):
            fence.check_read(1000, "read", 1)
        with pytest.raises(StaleEpoch):
            fence.check_write(1999, "cas", 1)
        with pytest.raises(StaleEpoch):
            fence.check_rpc(1, "rpc")
        fence.check_rpc(0, "rpc")


class TestAddMemoryNode:
    def test_grows_the_pool_at_a_new_epoch(self):
        cache = make_cache()
        values = fill(cache, 200)
        node_id = cache.add_memory_node()
        cluster = cache.cluster
        assert node_id == 2
        assert len(cluster.nodes) == 3
        assert cluster.membership.epoch == 1
        assert cluster.counters.as_dict()["epoch_bump"] == 1
        # The new node gets a fresh, disjoint address range.
        spans = sorted((n.base, n.end) for n in cluster.nodes)
        for (_, prev_end), (next_base, _) in zip(spans, spans[1:]):
            assert next_base >= prev_end
        # Existing data is untouched and new data lands fine.
        values.update(fill(cache, 200, start=200))
        assert check(cache, values) > 0
        invariant_sweep(cluster)

    def test_new_node_serves_allocations(self):
        cache = make_cache(num_memory_nodes=1)
        fill(cache, 50)
        node = cache.cluster.add_memory_node()
        fill(cache, 400, start=50)
        cache.cluster.engine.run()
        assert node.nic.messages > 0  # data-path verbs reached the new node


class TestRemoveMemoryNode:
    def test_drain_migrates_and_retires(self):
        cache = make_cache(num_clients=3)
        values = fill(cache, 300)
        cache.add_memory_node()
        values.update(fill(cache, 200, start=300))
        record = cache.remove_memory_node(1)
        cluster = cache.cluster
        assert record["phase"] == "done"
        assert record["migrated_objects"] > 0
        assert record["migrated_bytes"] > 0
        assert record["epoch_end"] == record["epoch_start"] + 1
        assert [n.node_id for n in cluster.nodes] == [0, 2]
        assert check(cache, values) > 0
        invariant_sweep(cluster)

    def test_removed_range_is_fenced_for_stale_pointers(self):
        cache = make_cache()
        fill(cache, 300)
        cache.add_memory_node()
        removed = next(n for n in cache.cluster.nodes if n.node_id == 1)
        base = removed.base
        cache.remove_memory_node(1)
        client = cache.cluster.clients[0]
        with pytest.raises(StaleEpoch):
            cache.cluster.engine.run_process(client.ep.read(base, 64))

    def test_guards(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.cluster.remove_memory_node(0)  # node 0 holds the table
        with pytest.raises(ValueError):
            cache.cluster.remove_memory_node(7)  # no such node
        cache.cluster.remove_memory_node(1, on_phase=None)
        with pytest.raises(ValueError):
            cache.cluster.remove_memory_node(1)  # already draining

    def test_cannot_remove_last_node(self):
        cache = make_cache(num_memory_nodes=1)
        with pytest.raises(ValueError):
            cache.cluster.remove_memory_node(0)

    @pytest.mark.parametrize("outcome", ["done", "aborted"])
    def test_drain_ends_one_epoch_later_on_every_node(self, outcome):
        cluster = DittoCluster(
            capacity_objects=256, object_bytes=128, num_clients=2, seed=5,
            num_memory_nodes=3,
        )
        for i in range(200):
            cluster.engine.run_process(
                cluster.clients[i % 2].set(b"k%d" % i, bytes([i % 251]) * 100)
            )
        node = cluster.nodes[2]
        cluster.remove_memory_node(2)
        if outcome == "aborted":
            # Survivors out of segments: the copy's first allocation fails.
            for survivor in cluster.nodes[:2]:
                state = survivor.controller.state
                state.next_free = state.end
                state.free_segments.clear()
        cluster.engine.run()
        record = cluster.migrations[-1]
        membership = cluster.membership
        assert record.phase == outcome
        expected = RETIRED if outcome == "done" else ACTIVE
        assert membership.state(node.node_id) == expected
        assert record.epoch_end == record.epoch_start + 1 == membership.epoch
        for n in cluster.nodes:
            assert n.controller.state.epoch == membership.epoch
            if membership.state(n.node_id) == ACTIVE:
                assert not n.controller.state.draining
        if outcome == "aborted":
            cluster.fence.check_write(node.base, "write", node.node_id)

    def test_draining_controller_rejects_new_grants(self):
        cache = make_cache()
        cluster = cache.cluster
        cluster._ensure_elastic()
        node = cluster.nodes[1]
        node.controller.state.draining = True
        client = cluster.clients[0]
        with pytest.raises(StaleEpoch):
            cluster.engine.run_process(
                client.ep.rpc(node, "alloc_segment", (4096, 0))
            )


class TestRemoveClients:
    def test_departing_clients_release_their_grants(self):
        cache = make_cache(num_clients=4)
        values = fill(cache, 300)
        cluster = cache.cluster
        granted_before = sum(
            len(segs)
            for node in cluster.nodes
            for segs in node.controller.granted_segments().values()
        )
        assert granted_before > 0
        cache.scale_clients(1)
        assert len(cluster.clients) == 1
        # Every grant now sits under a live owner: the survivor's id.
        live = {cluster.clients[0].client_id}
        for node in cluster.nodes:
            for owner in node.controller.granted_segments():
                assert owner in live
        assert cluster.counters.as_dict()["client_leave"] == 3
        invariant_sweep(cluster)
        assert check(cache, values) > 0

    def test_client_ids_stay_monotonic(self):
        cache = make_cache(num_clients=3)
        cache.scale_clients(1)
        new = cache.cluster.add_clients(2)
        ids = [c.client_id for c in cache.cluster.clients]
        assert ids == sorted(set(ids)), "a reused id would collide grant logs"
        assert all(c.client_id >= 3 for c in new)


class TestShrinkConvergence:
    def test_shrink_actively_converges(self):
        cache = make_cache(capacity_objects=128, max_capacity_objects=128)
        fill(cache, 128)
        used_before = cache.cluster.budget.used_bytes
        cache.resize(32)
        budget = cache.cluster.budget
        assert not budget.over_limit, "shrink must converge before returning"
        assert budget.used_bytes < used_before
        counters = cache.cluster.counters.as_dict()
        assert counters["shrink_evictions"] > 0
        assert counters["shrink_evicted_bytes"] >= used_before - budget.limit_bytes
        invariant_sweep(cache.cluster)

    def test_grow_does_not_start_shrink(self):
        cache = make_cache(capacity_objects=64, max_capacity_objects=256)
        fill(cache, 64)
        cache.resize(256)
        assert "shrink_evictions" not in cache.cluster.counters.as_dict()


class TestByteIdentity:
    """Arming the elasticity machinery without any scale event must not
    perturb the simulation: same ops, same timing, same stats."""

    @staticmethod
    def _run(arm: bool):
        cluster = DittoCluster(
            capacity_objects=128, object_bytes=128, num_clients=2, seed=9,
            num_memory_nodes=2,
        )
        if arm:
            cluster._ensure_elastic()
        run = cluster.engine.run_process
        for i in range(250):
            client = cluster.clients[i % 2]
            run(client.set(b"k%d" % (i % 90), bytes([i % 250]) * 80))
            run(client.get(b"k%d" % ((i * 7) % 90)))
        cluster.engine.run()
        return cluster.stats()

    def test_armed_idle_run_is_byte_identical(self):
        assert self._run(arm=False) == self._run(arm=True)
