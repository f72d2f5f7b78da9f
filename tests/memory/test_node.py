"""Unit tests for MemoryNode / MemoryPool raw semantics."""

import mmap
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory import MemoryAccessError, MemoryNode, MemoryPool
from repro.rdma.verbs import RdmaEndpoint
from repro.runtime.client import NodeHandle, RealEndpoint, WallClockRuntime
from repro.sim import Engine


@pytest.fixture()
def node():
    return MemoryNode(Engine(), size=4096)


class TestMemoryNode:
    def test_zero_initialized(self, node):
        assert node.read_bytes(0, 16) == bytes(16)

    def test_write_read_roundtrip(self, node):
        node.write_bytes(10, b"hello")
        assert node.read_bytes(10, 5) == b"hello"

    def test_u64_roundtrip(self, node):
        node.write_u64(8, 0xDEADBEEF)
        assert node.read_u64(8) == 0xDEADBEEF

    def test_u64_masks_to_64_bits(self, node):
        node.write_u64(8, 1 << 65)
        assert node.read_u64(8) == 0

    def test_out_of_range_read_raises(self, node):
        with pytest.raises(MemoryAccessError):
            node.read_bytes(4090, 10)
        with pytest.raises(MemoryAccessError):
            node.read_bytes(-1, 1)

    def test_out_of_range_write_raises(self, node):
        with pytest.raises(MemoryAccessError):
            node.write_bytes(4095, b"ab")

    def test_cas_semantics(self, node):
        assert node.compare_and_swap(0, 0, 5) == 0
        assert node.read_u64(0) == 5
        assert node.compare_and_swap(0, 0, 9) == 5  # fails
        assert node.read_u64(0) == 5

    def test_faa_semantics(self, node):
        assert node.fetch_and_add(0, 10) == 0
        assert node.fetch_and_add(0, -3 & 0xFFFFFFFFFFFFFFFF) == 10

    def test_misaligned_atomics_raise_and_touch_nothing(self):
        base = 1 << 20
        node = MemoryNode(None, 4096, base=base)
        node.write_bytes(base, bytes(range(1, 17)))
        with pytest.raises(MemoryAccessError, match="aligned"):
            node.compare_and_swap(base + 3, 0, 7)
        with pytest.raises(MemoryAccessError, match="aligned"):
            node.fetch_and_add(base + 4, 1)
        assert node.read_bytes(base, 16) == bytes(range(1, 17))
        assert node.compare_and_swap(base + 8, 0, 7) != 0  # aligned: runs

    def test_base_offset_addressing(self):
        node = MemoryNode(Engine(), size=1024, base=10_000)
        node.write_bytes(10_100, b"x")
        assert node.read_bytes(10_100, 1) == b"x"
        with pytest.raises(MemoryAccessError):
            node.read_bytes(100, 1)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            MemoryNode(Engine(), size=0)

    @given(st.integers(0, 4088), st.binary(min_size=1, max_size=8))
    def test_write_read_arbitrary(self, addr, data):
        node = MemoryNode(Engine(), size=4096)
        node.write_bytes(addr, data)
        assert node.read_bytes(addr, len(data)) == data


def _resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * mmap.PAGESIZE


class TestSparseResidency:
    """A simulated node holds the pages a run writes, not its range."""

    SIZE = 1 << 30
    STRIDE = SIZE // 8

    def test_resident_memory_follows_the_written_pages(self):
        before = _resident_bytes()
        node = MemoryNode(Engine(), size=self.SIZE, base=self.SIZE)
        for i in range(8):
            addr = self.SIZE + i * self.STRIDE
            node.write_bytes(addr, bytes([i + 1]) * 1024)
            node.compare_and_swap(addr + 2048, 0, i + 1)
        grown = _resident_bytes() - before
        # Eight objects touch eight pages; zeroing the whole range up
        # front grew it by the full GiB.
        assert grown < 8 << 20, f"resident memory grew {grown >> 20} MB"
        for i in range(8):
            addr = self.SIZE + i * self.STRIDE
            assert node.read_bytes(addr, 1024) == bytes([i + 1]) * 1024
            assert node.read_u64(addr + 2048) == i + 1

    def test_never_written_words_read_zero(self):
        node = MemoryNode(Engine(), size=self.SIZE)
        top = self.SIZE - 8
        assert node.read_bytes(self.STRIDE, 4096) == bytes(4096)
        assert node.read_bytes(top, 8) == bytes(8)
        # A CAS expecting non-zero finds zero and leaves it.
        assert node.compare_and_swap(2 * self.STRIDE, 1, 7) == 0
        assert node.read_u64(2 * self.STRIDE) == 0
        assert node.compare_and_swap(top, 0, 7) == 0
        assert node.read_u64(top) == 7
        assert node.fetch_and_add(3 * self.STRIDE, 5) == 0
        assert node.read_u64(3 * self.STRIDE) == 5


class TestMemoryPool:
    def test_overlapping_ranges_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError, match="overlap"):
            MemoryPool(
                [MemoryNode(engine, 100, base=0), MemoryNode(engine, 100, base=50)]
            )

    def test_node_for_routes_and_raises(self):
        engine = Engine()
        a = MemoryNode(engine, 100, base=0, node_id=0)
        b = MemoryNode(engine, 100, base=100, node_id=1)
        pool = MemoryPool([a, b])
        assert pool.node_for(50) is a
        assert pool.node_for(150) is b
        with pytest.raises(MemoryAccessError):
            pool.node_for(300)

    def test_straddling_access_rejected(self):
        engine = Engine()
        pool = MemoryPool(
            [MemoryNode(engine, 100, base=0), MemoryNode(engine, 100, base=100)]
        )
        with pytest.raises(MemoryAccessError):
            pool.node_for(95, 10)

    def test_add_checks_overlap(self):
        engine = Engine()
        pool = MemoryPool([MemoryNode(engine, 100, base=0)])
        with pytest.raises(ValueError):
            pool.add(MemoryNode(engine, 100, base=99))


#: ``(base, size)`` of each node, with gaps between them, listed out of
#: address order so the map has to sort.
LAYOUTS = {
    "one": [(1000, 500)],
    "two": [(2000, 300), (1000, 500)],
    "three": [(4096, 1024), (1000, 500), (2000, 300)],
}


def _pool(spans):
    return MemoryPool([
        MemoryNode(None, size, base=base, node_id=i)
        for i, (base, size) in enumerate(spans)
    ])


def _owner(nodes, addr, length):
    """The reference answer: a scan for the node holding the range."""
    for node in nodes:
        if node.base <= addr and addr + length <= node.end:
            return node
    return None


class TestAddressMap:
    """One sorted-base map routes the pool and both endpoints."""

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_bounds_gaps_and_straddles(self, name):
        pool = _pool(LAYOUTS[name])
        ordered = sorted(pool.nodes, key=lambda node: node.base)
        for node in ordered:
            assert pool.node_for(node.base) is node
            assert pool.node_for(node.end - 1) is node
            assert pool.node_for(node.base, node.size) is node
            with pytest.raises(MemoryAccessError):
                pool.node_for(node.end)  # one byte past; a gap follows
            with pytest.raises(MemoryAccessError):
                pool.node_for(node.end - 1, 2)
        for low, high in zip(ordered, ordered[1:]):
            with pytest.raises(MemoryAccessError):
                pool.node_for((low.end + high.base) // 2)  # in the gap
            with pytest.raises(MemoryAccessError):
                pool.node_for(low.end - 1, high.base - low.end + 2)
        lowest = ordered[0]
        for addr, length in ((0, 1), (lowest.base - 1, 1),
                             (lowest.base - 4, 8)):
            with pytest.raises(MemoryAccessError):
                pool.node_for(addr, length)

    def test_add_above_the_top_and_remove_the_middle(self):
        pool = _pool(LAYOUTS["two"])
        low, middle = sorted(pool.nodes, key=lambda node: node.base)
        top = MemoryNode(None, 1024, base=4096, node_id=2)
        pool.add(top)
        assert pool.node_for(4096 + 1023) is top
        assert pool.node_for(middle.base + 8, 8) is middle
        pool.remove(middle)
        for addr in (middle.base, middle.end - 1):
            with pytest.raises(MemoryAccessError):
                pool.node_for(addr)
        assert pool.node_for(low.base) is low
        assert pool.node_for(top.end - 8, 8) is top
        assert pool.nodes == [low, top]

    def test_a_failed_add_changes_nothing(self):
        pool = _pool(LAYOUTS["two"])
        with pytest.raises(ValueError, match="overlap"):
            pool.add(MemoryNode(None, 100, base=2250))
        assert len(pool.nodes) == 2
        with pytest.raises(MemoryAccessError):
            pool.node_for(2310)

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_both_endpoints_route_as_the_pool(self, name):
        pool = _pool(LAYOUTS[name])
        sim = RdmaEndpoint(Engine(), pool)
        handles = [NodeHandle(node.node_id, node.base, node.size, "@nowhere")
                   for node in pool.nodes]
        real = RealEndpoint(WallClockRuntime(), handles)
        rng = random.Random(49)
        top = max(node.end for node in pool.nodes)
        routed = 0
        for _ in range(1000):
            addr, length = rng.randrange(900, top + 100), rng.randrange(1, 600)
            owner = _owner(pool.nodes, addr, length)
            if owner is None:
                for route in (pool.node_for, sim._node_for, real._node_for):
                    with pytest.raises(MemoryAccessError):
                        route(addr, length)
                continue
            routed += 1
            assert pool.node_for(addr, length) is owner
            assert sim._node_for(addr, length) is owner
            assert real._node_for(addr, length).node_id == owner.node_id
        assert 100 < routed < 1000  # both answers were exercised
