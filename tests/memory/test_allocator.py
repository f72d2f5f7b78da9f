"""Unit tests for client-side allocation and the memory budget."""

import random

import pytest

from repro.memory import (
    BLOCK_SIZE,
    ClientAllocator,
    Controller,
    MemoryBudget,
    MemoryNode,
    MemoryPool,
    StripedAllocator,
)
from repro.rdma import RdmaEndpoint
from repro.sim import Engine


@pytest.fixture()
def alloc_setup():
    engine = Engine()
    node = MemoryNode(engine, size=1 << 20)
    Controller(node, cores=1, reserve=4096)
    ep = RdmaEndpoint(engine, MemoryPool([node]))
    allocator = ClientAllocator(ep, node, segment_bytes=4096)
    return engine, ep, allocator


def _alloc(engine, allocator, nbytes):
    def flow():
        addr = yield from allocator.alloc(nbytes)
        return addr

    return engine.run_process(flow())


class TestClientAllocator:
    def test_blocks_for(self):
        assert ClientAllocator.blocks_for(1) == 1
        assert ClientAllocator.blocks_for(64) == 1
        assert ClientAllocator.blocks_for(65) == 2
        assert ClientAllocator.blocks_for(0) == 1

    def test_block_aligned_addresses(self, alloc_setup):
        engine, _ep, allocator = alloc_setup
        a = _alloc(engine, allocator, 100)
        b = _alloc(engine, allocator, 100)
        assert b - a == 2 * BLOCK_SIZE

    def test_free_list_reuse(self, alloc_setup):
        engine, _ep, allocator = alloc_setup
        a = _alloc(engine, allocator, 100)
        allocator.free(a, 100)
        assert allocator.free_blocks == 2
        b = _alloc(engine, allocator, 100)
        assert b == a
        assert allocator.free_blocks == 0

    def test_different_size_classes_do_not_mix(self, alloc_setup):
        engine, _ep, allocator = alloc_setup
        a = _alloc(engine, allocator, 64)  # 1 block
        allocator.free(a, 64)
        b = _alloc(engine, allocator, 200)  # 4 blocks; must not reuse a
        assert b != a

    def test_segment_rpc_amortized(self, alloc_setup):
        engine, ep, allocator = alloc_setup
        for _ in range(64):  # 64 x 64B fills one 4 KiB segment exactly
            _alloc(engine, allocator, 64)
        assert ep.counters.get("rdma_rpc") == 1
        _alloc(engine, allocator, 64)
        assert ep.counters.get("rdma_rpc") == 2

    def test_oversized_allocation_gets_own_segment(self, alloc_setup):
        engine, _ep, allocator = alloc_setup
        addr = _alloc(engine, allocator, 8192)
        assert addr >= 4096

    def test_rejects_unaligned_segment_size(self, alloc_setup):
        engine, ep, allocator = alloc_setup
        with pytest.raises(ValueError):
            ClientAllocator(ep, allocator.node, segment_bytes=1000)


class TestMemoryBudget:
    def test_consume_and_release(self):
        budget = MemoryBudget(100)
        assert budget.try_consume(60)
        assert not budget.try_consume(50)
        budget.release(60)
        assert budget.try_consume(100)

    def test_release_too_much_raises(self):
        budget = MemoryBudget(100)
        with pytest.raises(RuntimeError):
            budget.release(1)

    def test_resize_shrink_leaves_overcommit(self):
        budget = MemoryBudget(100)
        budget.try_consume(80)
        budget.resize(50)
        assert budget.over_limit
        assert not budget.try_consume(1)
        budget.release(40)
        assert not budget.over_limit

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)
        with pytest.raises(ValueError):
            MemoryBudget(10).resize(0)


class TestStripedFreeRouting:
    """``StripedAllocator.free`` routes a block by sorted base to the
    allocator of the node holding it, whatever order the nodes came in."""

    SIZE = 64 * 1024

    @pytest.fixture()
    def routed(self):
        """Live nodes at bases 1, 5 and 7 (in units of SIZE), added in the
        order 7, 1, 5; the node at 3 was added and then dropped."""
        size, engine = self.SIZE, Engine()
        high, retired, low, middle = (
            MemoryNode(engine, size=size, base=k * size, node_id=k)
            for k in (7, 3, 1, 5)
        )
        ep = RdmaEndpoint(engine, MemoryPool([high, retired, low, middle]))
        striped = StripedAllocator(ep, [high, retired, low], segment_bytes=4096)
        striped.add_node(middle)
        striped.drop_node(retired)
        freed = []
        for allocator in striped.allocators:
            allocator.free = (
                lambda addr, nbytes, node=allocator.node:
                freed.append((node, addr, nbytes))
            )
        return striped, [low, middle, high], retired, freed

    def test_first_and_last_block_of_each_node(self, routed):
        striped, live, _retired, freed = routed
        for node in live:
            for addr in (node.base, node.end - BLOCK_SIZE):
                striped.free(addr, BLOCK_SIZE)
                assert freed.pop() == (node, addr, BLOCK_SIZE)

    def test_retired_range_is_dropped_silently(self, routed):
        striped, _live, retired, freed = routed
        for addr in (retired.base, retired.end - BLOCK_SIZE):
            striped.free(addr, BLOCK_SIZE)
        assert freed == []

    def test_unknown_address_raises(self, routed):
        striped, live, retired, freed = routed
        low, middle, high = live
        for addr in (0, low.base - 1, low.end, retired.base - 1, retired.end,
                     middle.base - 1, middle.end, high.base - 1, high.end,
                     10**12):
            with pytest.raises(ValueError):
                striped.free(addr, BLOCK_SIZE)
        assert freed == []

    def test_agrees_with_a_linear_scan(self, routed):
        striped, live, retired, freed = routed

        def linear(addr):
            for node in live:
                if node.contains(addr, 1):
                    return node
            if retired.base <= addr < retired.end:
                return "retired"
            return None

        rng = random.Random(50)
        for _ in range(1000):
            addr = rng.randrange(9 * self.SIZE)
            try:
                striped.free(addr, BLOCK_SIZE)
            except ValueError:
                got = None
            else:
                got = freed.pop()[0] if freed else "retired"
            assert got == linear(addr), addr
