"""Tests for memory pools with multiple memory nodes (paper §5.1)."""

import pytest

from repro.core import DittoCluster, invariant_sweep
from repro.memory import MemoryNode, MemoryPool, StripedAllocator, Controller
from repro.rdma import RdmaEndpoint
from repro.sim import Engine
from repro.sim.faults import FaultPlan, NodeOutage


def make_cluster(nodes: int, capacity: int = 256, clients: int = 2):
    return DittoCluster(
        capacity_objects=capacity, object_bytes=64, num_clients=clients,
        seed=1, num_memory_nodes=nodes,
    )


class TestStripedAllocator:
    @pytest.fixture()
    def striped(self):
        engine = Engine()
        nodes = []
        base = 0
        for node_id in range(3):
            node = MemoryNode(engine, size=64 * 1024, base=base, node_id=node_id)
            Controller(node, cores=1)
            nodes.append(node)
            base += 64 * 1024
        ep = RdmaEndpoint(engine, MemoryPool(nodes))
        return engine, nodes, StripedAllocator(ep, nodes, segment_bytes=4096)

    def test_round_robin_across_nodes(self, striped):
        engine, nodes, allocator = striped
        owners = set()
        for _ in range(3):
            addr = engine.run_process(allocator.alloc(4096))
            owners.add(next(n.node_id for n in nodes if n.contains(addr)))
        assert owners == {0, 1, 2}

    def test_free_routes_by_address(self, striped):
        engine, nodes, allocator = striped
        a = engine.run_process(allocator.alloc(100))
        allocator.free(a, 100)
        assert allocator.free_blocks == 2
        b = engine.run_process(allocator.alloc(100))
        assert b == a

    def test_free_rejects_foreign_address(self, striped):
        _engine, _nodes, allocator = striped
        with pytest.raises(ValueError):
            allocator.free(10**9, 64)

    def test_falls_over_on_node_exhaustion(self, striped):
        engine, nodes, allocator = striped
        # Exhaust by allocating more than one node holds; allocation keeps
        # succeeding as long as any node has room.
        for _ in range(3 * 15):  # 45 x 4 KiB < 3 x 64 KiB
            engine.run_process(allocator.alloc(4096))

    def test_requires_nodes(self):
        engine = Engine()
        node = MemoryNode(engine, size=1024)
        ep = RdmaEndpoint(engine, MemoryPool([node]))
        with pytest.raises(ValueError):
            StripedAllocator(ep, [])


class TestMultiMnCluster:
    def test_cache_correct_with_three_nodes(self):
        cluster = make_cluster(3)
        run = cluster.engine.run_process
        client = cluster.clients[0]
        for i in range(300):
            run(client.set(b"k%d" % i, b"v%d" % i))
        hits = 0
        for i in range(300):
            value = run(client.get(b"k%d" % i))
            if value is not None:
                assert value == b"v%d" % i
                hits += 1
        assert hits > 0

    def test_objects_spread_across_node_nics(self):
        cluster = make_cluster(3)
        run = cluster.engine.run_process
        client = cluster.clients[0]
        for i in range(200):
            run(client.set(b"k%d" % i, b"v" * 40))
            run(client.get(b"k%d" % i))
        cluster.engine.run()
        data_messages = [node.nic.messages for node in cluster.nodes[1:]]
        assert all(m > 0 for m in data_messages)

    def test_index_structures_stay_on_node_zero(self):
        cluster = make_cluster(2)
        lay = cluster.layout
        assert cluster.nodes[0].contains(lay.history_counter_addr)
        assert cluster.nodes[0].contains(lay.table_addr, lay.table_bytes)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            make_cluster(0)

    def test_eviction_works_across_nodes(self):
        cluster = make_cluster(3, capacity=32)
        run = cluster.engine.run_process
        client = cluster.clients[0]
        for i in range(200):
            run(client.set(b"k%d" % i, b"v" * 40))
        assert cluster.budget.used_bytes <= cluster.budget.limit_bytes
        assert client.evictions > 0


class TestMnOutageAmongSeveral:
    """Fault interaction: one MN of several goes dark, the rest keep serving."""

    @staticmethod
    def _make(seed):
        return DittoCluster(
            capacity_objects=600, object_bytes=64, num_clients=2, seed=seed,
            num_memory_nodes=3, faults=FaultPlan(),
        )

    @staticmethod
    def _fill(cluster, n):
        run = cluster.engine.run_process
        values = {}
        for i in range(n):
            key, value = b"k%d" % i, bytes([i % 251]) * 48
            run(cluster.clients[i % 2].set(key, value))
            values[key] = value
        return values

    def test_outage_degrades_only_the_dark_nodes_objects(self):
        cluster = self._make(seed=3)
        values = self._fill(cluster, 300)
        run = cluster.engine.run_process
        cluster.fault_injector.load(
            FaultPlan(outages=(NodeOutage(2, 0.0, 50_000.0),)),
            offset_us=cluster.engine.now,
        )
        window_end = cluster.engine.now + 50_000.0
        hits = misses = 0
        for key, value in values.items():
            got = run(cluster.clients[0].get(key))
            if got is None:
                misses += 1  # object striped onto the dark node
            else:
                assert got == value
                hits += 1
        assert hits > 0, "objects on surviving nodes must keep hitting"
        assert misses > 0, "objects on the dark node must miss through"
        counters = cluster.counters.as_dict()
        assert counters["fault_node_unavailable"] > 0
        assert counters["fault_miss_through"] == misses
        assert cluster.engine.now < window_end, "probe outran the window"
        # Once the node returns, everything is readable again — the data
        # never left, no repair step needed.
        def wait():
            yield window_end - cluster.engine.now + 1_000.0
        run(wait())
        for key, value in values.items():
            assert run(cluster.clients[0].get(key)) == value
        cluster.engine.run()
        invariant_sweep(cluster)

    def test_updates_during_outage_relocate_off_the_dark_node(self):
        cluster = self._make(seed=4)
        values = self._fill(cluster, 100)
        run = cluster.engine.run_process
        cluster.fault_injector.load(
            FaultPlan(outages=(NodeOutage(1, 0.0, 80_000.0),)),
            offset_us=cluster.engine.now,
        )
        window_end = cluster.engine.now + 80_000.0
        from repro.core import CacheOperationError
        updated = {}
        for key in values:
            fresh = b"u" * 48
            try:
                run(cluster.clients[1].set(key, fresh))
            except CacheOperationError:
                continue  # allocation retries exhausted on the dark node
            updated[key] = fresh
        assert updated, "updates must keep landing on surviving nodes"
        # An update writes a fresh block on a live node before CASing the
        # slot, so updated objects are readable *during* the outage.
        assert cluster.engine.now < window_end, "probe outran the window"
        for key, fresh in updated.items():
            assert run(cluster.clients[0].get(key)) == fresh
        def wait():
            yield window_end - cluster.engine.now + 1_000.0
        run(wait())
        cluster.engine.run()
        # Nothing leaked or double-owned despite failed ops mid-outage.
        invariant_sweep(cluster)
        for key, value in values.items():
            assert run(cluster.clients[0].get(key)) == updated.get(key, value)
