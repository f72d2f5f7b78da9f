"""Client-side fine-grained allocation (two-level memory management).

Following FUSEE, clients obtain coarse *segments* from the MN controller via
RPC (infrequent, off the critical path) and carve them locally into 64-byte
blocks.  Frees return blocks to the freeing client's local free lists; since
every block lives in shared remote memory, any client may reuse any address,
so no cross-client coordination is needed.

:class:`MemoryBudget` is the cache-capacity ledger.  Real Ditto discovers
"cache full" when allocation fails against the configured memory limit;
clients here consult a shared budget object at zero simulated cost, which
models the client-cached quota a real deployment distributes out of band.
Shrinking the budget (elastic memory scale-down) makes the cache evict on the
next inserts until usage fits, with no data migration — the DM property the
paper highlights.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Generator, List, Optional, Tuple

from ..rdma.transport import VerbTransport
from .controller import OutOfMemoryError
from .node import BLOCK_SIZE, MemoryNode


class MemoryBudget:
    """Shared accounting of cache memory: the elastic "memory resource"."""

    def __init__(self, limit_bytes: int):
        if limit_bytes <= 0:
            raise ValueError("memory budget must be positive")
        self.limit_bytes = limit_bytes
        self.used_bytes = 0

    def try_consume(self, nbytes: int) -> bool:
        if self.used_bytes + nbytes > self.limit_bytes:
            return False
        self.used_bytes += nbytes
        return True

    def release(self, nbytes: int) -> None:
        self.used_bytes -= nbytes
        if self.used_bytes < 0:
            raise RuntimeError("memory budget released more than consumed")

    def resize(self, limit_bytes: int) -> None:
        """Elastically grow or shrink the cache's memory allowance."""
        if limit_bytes <= 0:
            raise ValueError("memory budget must be positive")
        self.limit_bytes = limit_bytes

    @property
    def over_limit(self) -> bool:
        return self.used_bytes > self.limit_bytes

    def sample(self) -> dict:
        """Point-in-time budget snapshot (``repro.obs`` timelines)."""
        limit = self.limit_bytes
        return {
            "used_bytes": self.used_bytes,
            "limit_bytes": limit,
            "utilization": self.used_bytes / limit if limit else 0.0,
        }


class ClientAllocator:
    """Per-client block allocator over controller-granted segments."""

    def __init__(
        self,
        endpoint: VerbTransport,
        node: MemoryNode,
        segment_bytes: int = 1 << 20,
        owner: int = -1,
    ):
        if segment_bytes % BLOCK_SIZE:
            raise ValueError("segment size must be a multiple of the block size")
        self.endpoint = endpoint
        self.node = node
        self.segment_bytes = segment_bytes
        #: Identity attached to segment grants at the controller, so a
        #: survivor can reconcile a crashed client's grants after the fact.
        self.owner = owner
        self._bump_addr: Optional[int] = None
        self._bump_end = 0
        # free lists keyed by size in blocks
        self._free: Dict[int, List[int]] = {}
        #: Segments this client *knows* it was granted (recorded when the
        #: ALLOC RPC response lands; may lag the controller's grant log if
        #: the client dies mid-RPC).
        self._segments: List[Tuple[int, int]] = []
        #: Granted-but-unusable regions: bump remainders abandoned at refill
        #: and regions inherited through :meth:`adopt`.  Tracked so every
        #: granted byte stays accounted (see ``repro.core.invariants``).
        self._spare: List[Tuple[int, int]] = []

    @staticmethod
    def blocks_for(nbytes: int) -> int:
        """Object size in 64 B blocks (the unit the slot's size byte records)."""
        return max(1, (nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE)

    def try_alloc_free(self, nbytes: int) -> Optional[int]:
        """Pop a recycled block run of the right size class, if any."""
        bucket = self._free.get(self.blocks_for(nbytes))
        if bucket:
            return bucket.pop()
        return None

    def alloc(self, nbytes: int) -> Generator:
        """Allocate ``nbytes`` (rounded to blocks); returns the address.

        Served from local free lists or the current segment without network
        traffic; falls back to an ALLOC RPC for a fresh segment.
        """
        recycled = self.try_alloc_free(nbytes)
        if recycled is not None:
            return recycled
        nblocks = self.blocks_for(nbytes)
        size = nblocks * BLOCK_SIZE
        if self._bump_addr is None or self._bump_addr + size > self._bump_end:
            want = max(self.segment_bytes, size)
            tracer = self.endpoint.tracer
            t0 = self.endpoint.engine._now if tracer is not None else 0.0
            addr = yield from self.endpoint.rpc(
                self.node, "alloc_segment", (want, self.owner)
            )
            if tracer is not None:
                tracer.complete(
                    "alloc.segment", "allocator", t0,
                    {"bytes": want, "node": self.node.node_id},
                )
            # Only after the RPC succeeded: park the abandoned remainder on
            # the spare list.  Doing it before the RPC would leave the same
            # region both spare and bump-servable if the RPC fails (OOM or
            # an injected fault) — a double-owned range.
            if self._bump_addr is not None and self._bump_addr < self._bump_end:
                self._spare.append(
                    (self._bump_addr, self._bump_end - self._bump_addr)
                )
            self._segments.append((addr, want))
            self._bump_addr = addr
            self._bump_end = addr + want
        addr = self._bump_addr
        self._bump_addr += size
        return addr

    def free(self, addr: int, nbytes: int) -> None:
        """Return a block run to the local free list (no network traffic)."""
        self._free.setdefault(self.blocks_for(nbytes), []).append(addr)

    @property
    def free_blocks(self) -> int:
        return sum(size * len(addrs) for size, addrs in self._free.items())

    @property
    def segments(self) -> List[Tuple[int, int]]:
        """Segments this client recorded as granted (address, size)."""
        return list(self._segments)

    def adopt(self, other: "ClientAllocator") -> None:
        """Absorb a crashed client's allocator state.

        Free lists, the unused bump remainder, spare regions, and segment
        records all move to this (surviving) allocator; ``other`` is left
        empty.  Purely local bookkeeping — the network cost of learning the
        dead client's grants is paid separately via the ``list_segments``
        RPC during recovery.
        """
        for size, addrs in other._free.items():
            self._free.setdefault(size, []).extend(addrs)
        if other._bump_addr is not None and other._bump_addr < other._bump_end:
            self._spare.append(
                (other._bump_addr, other._bump_end - other._bump_addr)
            )
        self._spare.extend(other._spare)
        self._segments.extend(other._segments)
        other._free = {}
        other._bump_addr = None
        other._bump_end = 0
        other._spare = []
        other._segments = []


class StripedAllocator:
    """Client-side allocation across several memory nodes.

    Segments are taken from the nodes round-robin, spreading objects (and
    therefore data-path READs/WRITEs) over every node's NIC; frees route back
    to the owning node's allocator by address.  This is how Ditto uses a
    memory pool with multiple MNs: the pool only needs ALLOC/FREE plus the
    one-sided verbs (paper §2.2).
    """

    def __init__(self, endpoint, nodes, segment_bytes: int = 1 << 20, owner: int = -1):
        if not nodes:
            raise ValueError("need at least one memory node")
        self.owner = owner
        self._endpoint = endpoint
        self._segment_bytes = segment_bytes
        self._allocators = [
            ClientAllocator(endpoint, node, segment_bytes, owner=owner)
            for node in nodes
        ]
        self._nodes = list(nodes)
        #: Per-node flag: only active nodes serve fresh allocations.  Frees
        #: still route to inactive (draining) nodes' allocators by address.
        self._active = [True] * len(nodes)
        #: (base, end) ranges of nodes dropped by elastic removal: a free
        #: targeting one is a stale pointer into memory that no longer
        #: exists, dropped silently instead of raising.
        self._retired_ranges: List[Tuple[int, int]] = []
        self._next = 0
        self._index()

    blocks_for = staticmethod(ClientAllocator.blocks_for)

    def alloc(self, nbytes: int) -> Generator:
        # Recycled blocks first, wherever they live: reuse beats fresh
        # segments regardless of the striping cursor.
        for allocator, active in zip(self._allocators, self._active):
            if not active:
                continue
            recycled = allocator.try_alloc_free(nbytes)
            if recycled is not None:
                return recycled
        last_error: Optional[Exception] = None
        for _ in range(len(self._allocators)):
            allocator = self._allocators[self._next]
            active = self._active[self._next]
            self._next = (self._next + 1) % len(self._allocators)
            if not active:
                continue
            try:
                addr = yield from allocator.alloc(nbytes)
                return addr
            except OutOfMemoryError as error:
                last_error = error
        raise last_error if last_error else OutOfMemoryError("no memory nodes")

    def _index(self) -> None:
        """Sort the nodes' ranges by base for :meth:`free`: one ``bisect``
        and one bound check route a freed block, whatever the node count."""
        order = sorted(
            zip(self._nodes, self._allocators), key=lambda pair: pair[0].base
        )
        self._bases = [node.base for node, _ in order]
        self._ends = [node.end for node, _ in order]
        self._owners = [allocator for _, allocator in order]

    def free(self, addr: int, nbytes: int) -> None:
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and addr < self._ends[i]:
            self._owners[i].free(addr, nbytes)
            return
        for base, end in self._retired_ranges:
            if base <= addr < end:
                return  # stale pointer into a removed node; nothing to track
        raise ValueError(f"address {addr} not owned by any node")

    # -- elastic membership -------------------------------------------------

    def set_active(self, active_node_ids) -> None:
        """Restrict fresh allocations to the given node ids (membership)."""
        ids = set(active_node_ids)
        self._active = [node.node_id in ids for node in self._nodes]

    def add_node(self, node, active: bool = True) -> None:
        """Start striping over a newly added memory node."""
        if any(existing is node for existing in self._nodes):
            return
        self._allocators.append(
            ClientAllocator(
                self._endpoint, node, self._segment_bytes, owner=self.owner
            )
        )
        self._nodes.append(node)
        self._active.append(active)
        self._index()

    def drop_node(self, node) -> "ClientAllocator":
        """Forget a removed node: its allocator state (free lists, bump tail,
        spares, grant records) is discarded with the node's memory.  Returns
        the dropped per-node allocator for inspection."""
        for index, candidate in enumerate(self._nodes):
            if candidate is node:
                break
        else:
            raise ValueError(f"node {node!r} not striped by this allocator")
        dropped = self._allocators.pop(index)
        del self._nodes[index]
        del self._active[index]
        self._retired_ranges.append((node.base, node.end))
        self._index()
        if self._nodes:
            self._next %= len(self._nodes)
        else:
            self._next = 0
        return dropped

    @property
    def free_blocks(self) -> int:
        return sum(a.free_blocks for a in self._allocators)

    @property
    def allocators(self) -> List[ClientAllocator]:
        """Per-node allocators, aligned with the cluster's node list."""
        return list(self._allocators)

    def allocator_for_node(self, node) -> ClientAllocator:
        for candidate, allocator in zip(self._nodes, self._allocators):
            if candidate is node:
                return allocator
        raise ValueError(f"node {node!r} not striped by this allocator")

    def segments(self) -> List[Tuple[int, int]]:
        return [seg for a in self._allocators for seg in a.segments]

    def adopt(self, other: "StripedAllocator") -> None:
        """Absorb another striped allocator's state, matched by node.

        Matching by node identity (not list position) keeps adoption correct
        when the two allocators saw elastic node adds/removes in different
        orders.  A non-empty allocator for a node this side does not stripe
        is an error — its bytes would silently vanish.
        """
        for node, theirs in zip(other._nodes, other._allocators):
            mine = None
            for candidate, allocator in zip(self._nodes, self._allocators):
                if candidate is node:
                    mine = allocator
                    break
            if mine is None:
                if (
                    theirs._free or theirs._spare or theirs._segments
                    or (theirs._bump_addr is not None
                        and theirs._bump_addr < theirs._bump_end)
                ):
                    raise ValueError(
                        f"cannot adopt non-empty allocator for unknown node "
                        f"{node.node_id}"
                    )
                continue
            mine.adopt(theirs)


__all__ = [
    "BLOCK_SIZE",
    "ClientAllocator",
    "MemoryBudget",
    "OutOfMemoryError",
    "StripedAllocator",
]
