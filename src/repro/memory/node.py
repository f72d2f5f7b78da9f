"""Memory nodes: byte-addressable remote memory with 8-byte atomics.

A :class:`MemoryNode` owns a contiguous range of the global address space and
stores real bytes in an anonymous private mapping: the kernel zero-fills a
page on its first write, so a node holds the pages a run touches, not its
whole range.  All mutation happens through the methods here, which the verb
layer calls at the simulated instant the NIC serves the message — so CAS/FAA
linearize exactly like hardware atomics.

A :class:`MemoryPool` groups nodes into one global address space ([base,
base+size) per node) and routes addresses by sorted base: one ``bisect``
and one bound check per verb, whatever the node count.  The paper evaluates
with a single MN but the pool keeps the multi-MN door open.
"""

from __future__ import annotations

import mmap
import struct
from bisect import bisect_right
from typing import List, Optional

from ..sim import Engine, Resource
from ..rdma.params import NetworkParams

_U64 = struct.Struct("<Q")
_MASK = 0xFFFFFFFFFFFFFFFF

#: Allocation granule: the paper measures object sizes in 64-byte blocks.
BLOCK_SIZE = 64


class MemoryAccessError(RuntimeError):
    """Out-of-range or misaligned access against a memory node."""


class MemoryNode:
    """One memory node: raw memory + its RNIC + (optionally) a controller."""

    def __init__(
        self,
        engine: Optional[Engine],
        size: int,
        base: int = 0,
        node_id: int = 0,
        params: Optional[NetworkParams] = None,
        buffer=None,
    ):
        """``buffer`` (optional) backs the node's memory with an external
        writable buffer — the ``/dev/shm`` heap file a memory-node process
        maps — instead of a private anonymous mapping.  ``engine=None``
        builds a node with no simulated RNIC (the real substrate serves
        verbs over sockets; rate limiting is physical)."""
        if size <= 0:
            raise ValueError("memory node size must be positive")
        self.engine = engine
        self.node_id = node_id
        self.base = base
        self.size = size
        self._end = base + size  # immutable; cached for the bounds hot path
        self.params = params or NetworkParams()
        if buffer is None:
            buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        elif len(buffer) < size:
            raise ValueError(
                f"external buffer holds {len(buffer)} bytes, need {size}"
            )
        #: A memoryview either way: slicing one copies nothing, and
        #: ``tobytes`` copies once.
        self._memory = memoryview(buffer)[:size]
        #: The node's RNIC: a one-slot message queue shared by all clients
        #: (sim substrate only).
        self.nic = Resource(engine) if engine is not None else None
        #: Attached controller (set by Controller.__init__); weak compute.
        self.controller = None

    # -- bounds ---------------------------------------------------------

    @property
    def end(self) -> int:
        return self._end

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self._end

    def _refused(self, addr: int, length: int) -> MemoryAccessError:
        """What an accessor raises when its check fails: only atomics
        check alignment, so an in-range refusal is a misaligned word."""
        if self.contains(addr, length):
            why = "is not 8-byte aligned"
        else:
            why = f"is outside node range [{self.base}, {self.end})"
        return MemoryAccessError(
            f"access [{addr}, {addr + length}) on node {self.node_id} {why}"
        )

    # -- raw memory operations (instantaneous; timing lives in verbs) ---
    # Each accessor makes its own bounds check: one per memory access.

    def read_bytes(self, addr: int, length: int) -> bytes:
        off = addr - self.base
        if off < 0 or addr + length > self._end:
            raise self._refused(addr, length)
        return self._memory[off : off + length].tobytes()

    def write_bytes(self, addr: int, data: bytes) -> None:
        off, length = addr - self.base, len(data)
        if off < 0 or addr + length > self._end:
            raise self._refused(addr, length)
        self._memory[off : off + length] = data

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read_bytes(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write_bytes(addr, (value & _MASK).to_bytes(8, "little"))

    def word_offset(self, addr: int) -> int:
        """Offset of the atomic word at ``addr``.  RDMA atomics need an
        8-byte-aligned target inside the node; anything else raises
        :class:`MemoryAccessError` before a byte is touched."""
        off = addr - self.base
        if off < 0 or addr + 8 > self._end or addr & 7:
            raise self._refused(addr, 8)
        return off

    def compare_and_swap(self, addr: int, expected: int, new: int) -> int:
        """Atomically swap if current == expected; returns the *old* value."""
        off = addr - self.base
        if off < 0 or addr + 8 > self._end or addr & 7:
            raise self._refused(addr, 8)
        (old,) = _U64.unpack_from(self._memory, off)
        if old == expected:
            _U64.pack_into(self._memory, off, new & _MASK)
        return old

    def fetch_and_add(self, addr: int, delta: int) -> int:
        """Atomically add (mod 2^64); returns the *old* value."""
        off = addr - self.base
        if off < 0 or addr + 8 > self._end or addr & 7:
            raise self._refused(addr, 8)
        (old,) = _U64.unpack_from(self._memory, off)
        _U64.pack_into(self._memory, off, (old + delta) & _MASK)
        return old


class MemoryPool:
    """The memory pool: a set of MNs forming one global address space, and
    the map every verb routes by.  Bases, ends and nodes are parallel lists
    sorted by base; anything with ``base`` and ``end`` maps, so the real
    substrate routes its node handles through a pool too."""

    def __init__(self, nodes: Optional[List[MemoryNode]] = None):
        self._bases: List[int] = []
        self._ends: List[int] = []
        self.nodes: List[MemoryNode] = []
        for node in nodes or ():
            self.add(node)

    def add(self, node: MemoryNode) -> None:
        """Map ``node``'s range; raises ValueError if it overlaps another's."""
        bases, i = self._bases, bisect_right(self._bases, node.base)
        if (i and self._ends[i - 1] > node.base) or (
            i < len(bases) and node.end > bases[i]
        ):
            raise ValueError("memory node address ranges overlap")
        bases.insert(i, node.base)
        self._ends.insert(i, node.end)
        self.nodes.insert(i, node)

    def remove(self, node: MemoryNode) -> None:
        """Detach a node (elastic removal); its range stops resolving."""
        i = self.nodes.index(node)
        del self._bases[i], self._ends[i], self.nodes[i]

    def node_for(self, addr: int, length: int = 1) -> MemoryNode:
        """The node whose range holds ``[addr, addr + length)``."""
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and addr + length <= self._ends[i]:
            return self.nodes[i]
        raise MemoryAccessError(f"access [{addr}, {addr + length}) not in any node")
