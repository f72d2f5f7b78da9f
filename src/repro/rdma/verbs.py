"""One-sided RDMA verbs over simulated memory nodes.

Every verb is a generator meant to run inside a simulation process
(``yield from endpoint.read(...)``).  The timing of a verb is::

    client overhead -> half RTT -> MN NIC queue + service -> half RTT

The three legs are folded into a single engine event via the NIC's
virtual-time booking (see :meth:`repro.sim.RateLimiter.book`): the booking
order equals issue order, queueing delay is exact for a FIFO pipe, and the
process resumes when the response lands.  Memory mutations (WRITE/CAS/FAA)
execute at resume time — a constant half-RTT after NIC service for every
client — so atomics linearize across concurrent clients in NIC-service
order, exactly as on hardware.

``post_*`` variants are fire-and-forget, modelling the unsignalled posts the
paper uses for metadata updates.  A post is two engine callbacks, not a
process: one books the NIC as the verb would, one lands the bytes, in the
heap slots a spawned process would take (DESIGN §3.1).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..memory.node import MemoryNode, MemoryPool
from ..sim import CounterSet, Engine
from ..sim.faults import DROP, OK, FaultInjector
from .params import NetworkParams
from .transport import VerbTransport

_COUNTER_KEYS = {
    verb: f"rdma_{verb}" for verb in ("read", "write", "cas", "faa", "rpc")
}


class RdmaFaultError(RuntimeError):
    """Base of the injected-failure hierarchy: a verb did not complete."""

    def __init__(self, message: str, verb: str = "", node_id: int = -1):
        super().__init__(message)
        self.verb = verb
        self.node_id = node_id


class VerbTimeout(RdmaFaultError):
    """The verb (or its response) was lost; no completion within the timeout."""


class NodeUnavailable(RdmaFaultError):
    """The target memory node is down; the verb cannot complete."""


class StaleEpoch(RdmaFaultError):
    """The verb was fenced: the client's cached membership epoch is stale.

    Raised when a verb targets memory whose ownership changed under an
    epoch bump (a memory node draining out or already retired).  Unlike a
    timeout, the rejection is immediate — the MN NACKs the request against
    its current epoch — so the client should refresh its membership view
    and retry, bounded by ``DittoConfig.epoch_retries``.  Subclassing
    :class:`RdmaFaultError` keeps any unhandled path on the existing
    degrade-not-crash fault machinery.
    """

    def __init__(self, message: str, verb: str = "", node_id: int = -1,
                 epoch: int = 0):
        super().__init__(message, verb=verb, node_id=node_id)
        self.epoch = epoch


class RdmaEndpoint(VerbTransport):
    """A client-side RDMA endpoint (one per simulated client thread).

    The sim implementation of :class:`~repro.rdma.transport.VerbTransport`:
    every verb's timing is cost-modelled against the discrete-event engine.
    """

    __slots__ = (
        "engine",
        "pool",
        "params",
        "counters",
        "faults",
        "tracer",
        "fence",
        "_single_node",
        "_lead",
        "_lag",
        "_inv_bw",
        "_base_read",
        "_base_write",
        "_base_cas8",
        "_base_faa8",
        "_base_rpc",
        "consensus",
    )

    def __init__(
        self,
        engine: Engine,
        pool: MemoryPool,
        params: Optional[NetworkParams] = None,
        counters: Optional[CounterSet] = None,
        faults: Optional[FaultInjector] = None,
        tracer=None,
    ):
        self.engine = engine
        self.pool = pool
        self.params = params or NetworkParams()
        self.counters = counters if counters is not None else CounterSet()
        #: Fault injector; None (the default) keeps every verb on the
        #: zero-overhead healthy path.
        self.faults = faults
        #: Span tracer (repro.obs); None keeps verbs span-free.
        self.tracer = tracer
        #: Epoch fence (repro.core.elasticity.EpochFence); None — the
        #: default until a cluster's first membership change — keeps every
        #: verb on the unfenced fast path.  Checked at issue time: a fenced
        #: verb is NACKed immediately with :class:`StaleEpoch` instead of
        #: reaching the NIC pipe.
        self.fence = None
        #: Replicated-controller handle (repro.core.consensus.GroupClient);
        #: None — the default — keeps metadata RPCs on the direct
        #: single-controller path.  When set, segment-management RPCs route
        #: through the raft group instead of a single controller.
        self.consensus = None
        # Pre-resolved fast path for the common single-MN pool.
        self._single_node = pool.nodes[0] if len(pool.nodes) == 1 else None
        self._lead = self.params.client_overhead_us + self.params.one_way_us()
        self._lag = self.params.one_way_us()
        # Per-verb NIC service costs, precomputed once: params are immutable
        # after endpoint construction, and verbs run millions of times per
        # experiment, so the dict lookup + division in nic_service_us() is
        # pure per-call overhead.  CAS/FAA always carry 8-byte payloads, so
        # their full cost folds into one constant.
        p = self.params
        rate = p.nic_rate_mops
        self._inv_bw = 1.0 / p.bandwidth_bytes_per_us
        self._base_read = p.verb_costs["read"] / rate
        self._base_write = p.verb_costs["write"] / rate
        self._base_cas8 = p.verb_costs["cas"] / rate + 8.0 * self._inv_bw
        self._base_faa8 = p.verb_costs["faa"] / rate + 8.0 * self._inv_bw
        self._base_rpc = p.verb_costs["rpc"] / rate

    def _node_for(self, addr: int, length: int) -> MemoryNode:
        node = self._single_node
        if node is not None and node.contains(addr, length):
            return node
        return self.pool.node_for(addr, length)

    # -- fault injection ---------------------------------------------------

    def _fault_gate(self, node: MemoryNode, verb: str) -> Generator:
        """Consult the injector; returns extra lead latency or raises.

        A failed verb burns the configured completion timeout in simulated
        time before raising — the client is blocked polling for a completion
        that never comes.  Dropped/failed verbs never reach the NIC pipe.
        """
        kind, extra = self.faults.verb_outcome(node.node_id, verb)
        if kind == OK:
            if extra:
                self.counters.add("fault_latency_spike")
            return extra
        yield self.params.verb_timeout_us
        raise self._timed_out(node, verb, kind)

    def _timed_out(self, node: MemoryNode, verb: str, kind: int,
                   tid: Optional[int] = None, lane: str = "") -> RdmaFaultError:
        """Trace and count a verb whose timeout just ran out; returns the
        error for a waiting caller to raise."""
        timeout_us = self.params.verb_timeout_us
        if self.tracer is not None:
            self.tracer.instant(
                "fault.verb_timeout", "fault",
                {"verb": verb, "node": node.node_id}, tid, lane,
            )
        if kind == DROP:
            self.counters.add("fault_verb_timeout")
            return VerbTimeout(
                f"{verb} to node {node.node_id} timed out after {timeout_us}us",
                verb=verb,
                node_id=node.node_id,
            )
        self.counters.add("fault_node_unavailable")
        return NodeUnavailable(
            f"node {node.node_id} is unreachable ({verb} timed out after "
            f"{timeout_us}us)",
            verb=verb,
            node_id=node.node_id,
        )

    # -- one-sided verbs ---------------------------------------------------

    def read(self, addr: int, length: int) -> Generator:
        """RDMA_READ: returns ``length`` bytes from remote memory."""
        # Fence before address resolution: a retired node has left the pool,
        # so a stale pointer must NACK as StaleEpoch, not unwind as a
        # MemoryAccessError from the routing lookup.
        if self.fence is not None:
            self.fence.check_read(addr, "read", -1)
        node = self._node_for(addr, length)
        self.counters.add("rdma_read")
        tracer = self.tracer
        t0 = self.engine._now if tracer is not None else 0.0
        lead = self._lead
        if self.faults is not None:
            lead += yield from self._fault_gate(node, "read")
        yield node.nic.book(
            self._base_read + length * self._inv_bw, lead, self._lag
        )
        if tracer is not None:
            tracer.complete("rdma.read", "rdma", t0)
        return node.read_bytes(addr, length)

    def write(self, addr: int, data: bytes) -> Generator:
        """RDMA_WRITE: stores ``data`` at ``addr``."""
        if self.fence is not None:
            self.fence.check_write(addr, "write", -1)
        node = self._node_for(addr, len(data))
        self.counters.add("rdma_write")
        tracer = self.tracer
        t0 = self.engine._now if tracer is not None else 0.0
        lead = self._lead
        if self.faults is not None:
            lead += yield from self._fault_gate(node, "write")
        yield node.nic.book(
            self._base_write + len(data) * self._inv_bw, lead, self._lag
        )
        if tracer is not None:
            tracer.complete("rdma.write", "rdma", t0)
        node.write_bytes(addr, data)

    def cas(self, addr: int, expected: int, new: int) -> Generator:
        """RDMA_CAS on an 8-byte word; returns the old value.

        The swap succeeded iff the returned value equals ``expected``.
        """
        if self.fence is not None:
            self.fence.check_write(addr, "cas", -1)
        node = self._node_for(addr, 8)
        self.counters.add("rdma_cas")
        tracer = self.tracer
        t0 = self.engine._now if tracer is not None else 0.0
        lead = self._lead
        if self.faults is not None:
            lead += yield from self._fault_gate(node, "cas")
        yield node.nic.book(self._base_cas8, lead, self._lag)
        if tracer is not None:
            tracer.complete("rdma.cas", "rdma", t0)
        return node.compare_and_swap(addr, expected, new)

    def faa(self, addr: int, delta: int) -> Generator:
        """RDMA_FAA on an 8-byte word; returns the old value."""
        if self.fence is not None:
            self.fence.check_write(addr, "faa", -1)
        node = self._node_for(addr, 8)
        self.counters.add("rdma_faa")
        tracer = self.tracer
        t0 = self.engine._now if tracer is not None else 0.0
        lead = self._lead
        if self.faults is not None:
            lead += yield from self._fault_gate(node, "faa")
        yield node.nic.book(self._base_faa8, lead, self._lag)
        if tracer is not None:
            tracer.complete("rdma.faa", "rdma", t0)
        return node.fetch_and_add(addr, delta)

    def charge(self, node: MemoryNode, verb: str, payload: int = 8) -> Generator:
        """Timing-only verb: full latency/NIC accounting, no memory access.

        Baseline systems whose *remote state* is cost-modelled (e.g. the
        CliqueMap server structures) use this so their verbs contend for the
        same NIC as everything else without maintaining byte layouts.
        """
        self.counters.add(_COUNTER_KEYS[verb])
        tracer = self.tracer
        t0 = self.engine._now if tracer is not None else 0.0
        yield node.nic.book(
            self.params.nic_service_us(verb, payload), self._lead, self._lag
        )
        if tracer is not None:
            tracer.complete("rdma.charge", "rdma", t0, {"verb": verb})

    # -- RPC to the memory-node controller --------------------------------

    def rpc(self, node: MemoryNode, op: str, payload=None, size: int = 64) -> Generator:
        """RDMA-based RPC served by the (weak) controller CPU of ``node``."""
        if node.controller is None:
            raise RuntimeError(f"memory node {node.node_id} has no controller")
        if self.fence is not None:
            self.fence.check_rpc(node.node_id, "rpc")
        self.counters.add("rdma_rpc")
        tracer = self.tracer
        t0 = self.engine._now if tracer is not None else 0.0
        lead = self._lead
        if self.faults is not None:
            lead += yield from self._fault_gate(node, "rpc")
        yield node.nic.book(self._base_rpc + size * self._inv_bw, lead, 0.0)
        result = yield from node.controller.serve(op, payload)
        yield node.nic.book(
            self._base_write + size * self._inv_bw, 0.0, self._lag
        )
        if tracer is not None:
            tracer.complete("rdma.rpc", "rdma", t0, {"op": op})
        return result

    # -- asynchronous (unsignalled) posts ---------------------------------

    def post_write(self, addr: int, data: bytes) -> None:
        """Fire-and-forget WRITE."""
        self._post("write", addr, data)

    def post_faa(self, addr: int, delta: int) -> None:
        """Fire-and-forget FAA."""
        self._post("faa", addr, delta)

    def _post(self, verb: str, addr: int, arg) -> None:
        """Fence, route, count, gate and book as :meth:`write`/:meth:`faa`
        do, now: on an RC queue pair, as on the real link, a post is ahead
        of the client's next verb.  A lost post costs only its update."""
        engine = self.engine
        # Take the lane a spawned process would, so later ones keep theirs.
        tid = next(engine._tids)
        if self.fence is not None:
            try:
                self.fence.check_write(addr, verb, -1)
            except StaleEpoch:
                self.counters.add("fenced_post_dropped")
                return
        if verb == "write":
            node = self._node_for(addr, len(arg))
            service = self._base_write + len(arg) * self._inv_bw
            land = node.write_bytes
        else:
            node = self._node_for(addr, 8)
            service, land = self._base_faa8, node.fetch_and_add
        self.counters.add(_COUNTER_KEYS[verb])
        lead = self._lead
        if self.faults is not None:
            kind, extra = self.faults.verb_outcome(node.node_id, verb)
            if kind != OK:
                engine.call_later(self.params.verb_timeout_us, self._drop_post,
                                  tid, verb, node, kind)
                return
            if extra:
                self.counters.add("fault_latency_spike")
            lead += extra
        engine.call_later(node.nic.book(service, lead, self._lag),
                          self._land_post, tid, verb, land, addr, arg, engine._now)

    def _land_post(self, tid: int, verb: str, land, addr: int, arg,
                   t0: float) -> None:
        if self.tracer is not None:
            self.tracer.complete("rdma." + verb, "rdma", t0, tid=tid,
                                 lane="post_" + verb)
        land(addr, arg)

    def _drop_post(self, tid: int, verb: str, node: MemoryNode, kind: int):
        self._timed_out(node, verb, kind, tid, "post_" + verb)
        self.counters.add("fault_post_dropped")
