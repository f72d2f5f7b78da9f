"""Memory-node controllers: weak compute serving management RPCs.

The controller owns the MN's CPU cores (1 by default, per the paper's
testbed) as a simulated :class:`Resource`.  RPC handlers are registered with a
CPU cost — a constant or a ``cost(payload) -> us`` callable — and the handler
function runs at the *end* of its CPU service window, so its side effects
linearize at a single simulated instant.

The segment-management state itself (the coarse level of the two-level
memory management scheme) lives in :class:`SegmentState`, a pure in-memory
state machine with no engine or network dependencies.  The split matters for
controller HA (``repro.core.consensus``): replicated controllers apply the
same commands to their own :class:`SegmentState` copies, while the serving
path here stays the single-controller fast path.  Ditto's adaptive module
and the CliqueMap baseline register their own handlers on top.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Tuple, Union

from ..rdma.verbs import StaleEpoch
from ..sim import Engine, Resource
from .node import BLOCK_SIZE, MemoryNode

CostSpec = Union[float, Callable[[object], float]]


class OutOfMemoryError(RuntimeError):
    """The memory node cannot satisfy a segment allocation."""


class SegmentState:
    """Pure segment-management state of one memory node.

    Bump pointer, size-classed free lists, and the per-owner grant log —
    everything ``alloc_segment``/``free_segment``/``list_segments``/
    ``reassign_grants`` read or write, with no side effects beyond its own
    fields.  Deterministic and cloneable, so consensus replicas can apply
    the same command stream to independent copies and converge.
    """

    __slots__ = (
        "node_id", "next_free", "end", "free_segments", "grants",
        "draining", "epoch",
    )

    def __init__(self, node_id: int, start: int, end: int):
        self.node_id = node_id
        self.next_free = start
        self.end = end
        self.free_segments: Dict[int, List[int]] = {}  # size -> [addr, ...]
        # Grant log: owner id -> [(addr, size), ...].  Lets a survivor
        # reconcile a crashed client's segments (``list_segments``) and
        # backs the offline memory-accounting sweep.
        self.grants: Dict[int, List[Tuple[int, int]]] = {}
        #: Once True (the node is draining out of the pool), segment
        #: allocation is fenced; ``epoch`` is the membership epoch a
        #: StaleEpoch NACK advertises.
        self.draining = False
        self.epoch = 0

    #: The RPC operations :meth:`serve` answers.
    RPC_OPS = (
        "alloc_segment", "free_segment", "list_segments", "reassign_grants",
        "granted_segments",
    )

    def serve(self, op: str, payload, token: int = 0):
        """Answer one segment-management RPC: the dispatch the sim
        :class:`Controller` registers and ``MetadataState.serve`` calls.

        An ``alloc_segment`` payload is a plain size or ``(size, owner)``
        (anonymous callers share owner ``-1``); ``token`` is the caller's
        resend-dedup key.
        """
        if op == "alloc_segment":
            if self.draining:
                raise StaleEpoch(
                    f"node {self.node_id} is draining at epoch {self.epoch}: "
                    "no new segment grants",
                    verb="rpc", node_id=self.node_id, epoch=self.epoch,
                )
            if isinstance(payload, tuple):
                size, owner = payload
            else:
                size, owner = payload, -1
            return self.alloc(size, owner, token)
        if op == "free_segment":
            return self.free(*payload)
        if op == "list_segments":
            return self.list_owner(payload)
        if op == "reassign_grants":
            return self.reassign(*payload)
        if op == "granted_segments":
            return self.granted_segments()
        raise KeyError(f"not a segment-management RPC: {op!r}")

    def clone(self) -> "SegmentState":
        new = SegmentState(self.node_id, self.next_free, self.end)
        new.free_segments = {
            size: list(addrs) for size, addrs in self.free_segments.items()
        }
        new.grants = {owner: list(segs) for owner, segs in self.grants.items()}
        new.draining = self.draining
        new.epoch = self.epoch
        return new

    # -- commands -----------------------------------------------------------

    def alloc(self, size: int, owner: int, token: int = 0) -> int:
        """Hand out a contiguous segment; raises when the node is exhausted.

        ``token`` is remembered only by durable state
        (:class:`~repro.runtime.journal.DurableSegmentState`).
        """
        size = _round_up(size, BLOCK_SIZE)
        bucket = self.free_segments.get(size)
        if bucket:
            addr = bucket.pop()
        else:
            if self.next_free + size > self.end:
                raise OutOfMemoryError(
                    f"node {self.node_id}: cannot allocate {size} bytes"
                )
            addr = self.next_free
            self.next_free += size
        self.grants.setdefault(owner, []).append((addr, size))
        return addr

    def free(self, addr: int, size: int) -> None:
        size = _round_up(size, BLOCK_SIZE)
        self.free_segments.setdefault(size, []).append(addr)
        for grants in self.grants.values():
            if (addr, size) in grants:
                grants.remove((addr, size))
                break

    def list_owner(self, owner: int) -> list:
        """Segments currently granted to ``owner`` (crash reconciliation)."""
        return list(self.grants.get(owner, ()))

    def reassign(self, from_owner: int, to_owner: int) -> int:
        """Move every grant from one owner to another; returns the count."""
        moving = self.grants.pop(from_owner, [])
        if moving:
            self.grants.setdefault(to_owner, []).extend(moving)
        return len(moving)

    # -- introspection ------------------------------------------------------

    def granted_segments(self) -> Dict[int, list]:
        """Snapshot of the grant log (offline introspection, zero cost)."""
        return {owner: list(segs) for owner, segs in self.grants.items() if segs}

    @property
    def bytes_remaining(self) -> int:
        reclaimed = sum(
            size * len(addrs) for size, addrs in self.free_segments.items()
        )
        return (self.end - self.next_free) + reclaimed


class Controller:
    """The weak-compute controller attached to a memory node."""

    #: Default CPU cost of a trivial handler, on top of dispatch cost.
    DEFAULT_HANDLER_CPU_US = 0.5

    def __init__(self, node: MemoryNode, cores: int = 1, reserve: int = 0):
        """``reserve`` bytes at the node base are kept for fixed structures
        (hash table, global counters) and never handed to segment allocation.
        """
        self.node = node
        self.engine: Engine = node.engine
        self.cpu = Resource(self.engine, cores)
        self._handlers: Dict[str, Tuple[Callable, CostSpec]] = {}
        #: Segment allocation state; shared by reference with the replicated
        #: metadata service when controller HA is armed, so committed
        #: commands and locally served RPCs observe the same state.
        self.state = SegmentState(node.node_id, node.base + reserve, node.end)
        #: Span tracer (repro.obs); None keeps serve() span-free.
        self.tracer = None
        node.controller = self
        for op in SegmentState.RPC_OPS:
            self.register(op, partial(self.state.serve, op))

    @property
    def cores(self) -> int:
        return self.cpu.capacity

    def set_cores(self, cores: int) -> None:
        """Elastically adjust MN-side compute (Figure 15)."""
        self.cpu.set_capacity(cores)

    def register(self, op: str, fn: Callable, cpu_us: Optional[CostSpec] = None) -> None:
        if cpu_us is None:
            cpu_us = self.DEFAULT_HANDLER_CPU_US
        self._handlers[op] = (fn, cpu_us)

    def serve(self, op: str, payload) -> Generator:
        """Serve one RPC: queue for a core, burn CPU, run the handler."""
        try:
            fn, cost = self._handlers[op]
        except KeyError:
            raise KeyError(f"no RPC handler registered for {op!r}") from None
        cpu_us = cost(payload) if callable(cost) else cost
        tracer = self.tracer
        t0 = self.engine._now if tracer is not None else 0.0
        yield from self.cpu.acquire()
        try:
            if tracer is not None:
                wait_us = self.engine._now - t0
            yield self.node.params.rpc_dispatch_cpu_us + cpu_us
            result = fn(payload)
        finally:
            self.cpu.release()
        if tracer is not None:
            tracer.complete(
                "rpc." + op, "controller", t0, {"wait_us": wait_us}
            )
        return result

    def granted_segments(self) -> Dict[int, list]:
        return self.state.granted_segments()

    @property
    def bytes_remaining(self) -> int:
        return self.state.bytes_remaining


def _round_up(value: int, granule: int) -> int:
    return (value + granule - 1) // granule * granule
