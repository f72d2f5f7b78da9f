"""Epoch-based memory-node membership and live migration (elastic MNs).

Ditto's headline claim is elasticity; for the *compute* pool that is easy
(clients join and leave with no data movement), but adding or removing a
**memory node** moves ownership of remote memory while clients keep serving
traffic.  This module provides the protocol pieces:

- :class:`MembershipTable` — the controller-published view of the memory
  pool: a monotonically increasing **epoch** plus a state per node
  (``active`` / ``draining`` / ``retired``).  Clients cache a copy and only
  refresh it when the fence below tells them their copy went stale.
- :class:`EpochFence` — the MN-side admission check every verb consults.
  After a membership change the fence NACKs verbs that are no longer legal
  (writes into a draining node's heap, anything into a retired range) with
  :class:`~repro.rdma.verbs.StaleEpoch`, which triggers the client's bounded
  refresh-and-retry.  Until the first membership change the fence is not
  armed and verbs take the unfenced fast path, keeping default runs
  byte-identical.
- :class:`MetadataState` — membership, segment state and expert weights,
  whose ``serve`` answers every metadata RPC on both substrates.
- :class:`Migrator` — the two-phase segment drain behind
  ``remove_memory_node``: a hot-data-first **copy** phase (objects move via
  READ → ALLOC on a surviving node → WRITE → CAS on the slot atomic, the
  same linearization point as a client update, so the drain races concurrent
  Sets/Deletes safely) and a **handoff** phase (a verify re-scan that must
  observe a clean pass, then the synchronous retire: epoch bump, full fence,
  allocator purge, node removal).

Degraded mode during a drain is exactly what the paper's protocol allows:
Gets keep READing objects from the source node until the moment their slot
is CASed to the new copy; Sets targeting the draining node are fenced and
re-routed to surviving nodes after one membership refresh.

Crash safety: the drain is executed by the cluster (the controller role),
not by a cache client, so injected *client* crashes never kill a drain —
they take the normal 3-step crash recovery while the drain retries around
the same fault windows (verb drops, controller-RPC failures, MN outages)
with the recovery path's generous backoff budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..memory.allocator import StripedAllocator
from ..memory.controller import OutOfMemoryError, SegmentState
from ..rdma.verbs import RdmaFaultError, StaleEpoch
from . import layout as L
from .adaptive import GlobalWeights

#: Node membership states.
ACTIVE = "active"
DRAINING = "draining"
RETIRED = "retired"

#: Slots fetched per table-scan READ during a drain (matches repair_scan).
SCAN_CHUNK_SLOTS = 128

#: A drain re-scans until a pass moves nothing; this bounds a pathological
#: workload that keeps racing objects onto the draining node.
MAX_DRAIN_PASSES = 64

#: Fault-retry budget for one control-plane step: a crash-recovery RPC or a
#: migration step (both ride out the same windows in ``_retrying``).
CONTROL_RETRY_LIMIT = 1000

#: Grant-log owner ids for migration allocators: negative and offset so they
#: can never collide with client ids (>= 0) or the anonymous owner (-1).
MIGRATOR_OWNER_BASE = -100

#: Segment granularity for the migration allocator.  Finer than the client
#: default so a drain can pack into whatever headroom the surviving
#: controllers still have — a drain typically runs when the pool is full.
MIGRATION_SEGMENT_BYTES = 64 * 1024


class MigrationError(RuntimeError):
    """A drain could not complete (capacity shortfall or persistent faults)."""


class MembershipTable:
    """Epoch-versioned membership of the memory pool (controller-owned).

    Every mutation bumps the epoch.  ``snapshot()`` is the wire format the
    ``get_membership`` RPC returns; clients keep the epoch and the active
    node-id set.
    """

    def __init__(self, node_ids):
        self.epoch = 0
        self._states: Dict[int, str] = {nid: ACTIVE for nid in node_ids}

    def state(self, node_id: int) -> str:
        return self._states[node_id]

    def add(self, node_id: int) -> int:
        self._states[node_id] = ACTIVE
        self.epoch += 1
        return self.epoch

    def set_state(self, node_id: int, state: str) -> int:
        if state not in (ACTIVE, DRAINING, RETIRED):
            raise ValueError(f"unknown membership state {state!r}")
        if node_id not in self._states:
            raise KeyError(f"unknown memory node {node_id}")
        self._states[node_id] = state
        self.epoch += 1
        return self.epoch

    def active_ids(self) -> Tuple[int, ...]:
        return tuple(
            nid for nid, state in sorted(self._states.items())
            if state == ACTIVE
        )

    def snapshot(self) -> Tuple[int, Tuple[Tuple[int, str], ...]]:
        """(epoch, ((node_id, state), ...)) — the ``get_membership`` reply."""
        return self.epoch, tuple(sorted(self._states.items()))


class MetadataState:
    """The metadata state machine: membership + per-node segment state +
    adaptive expert weights, holding only what its node hosts.

    :meth:`serve` is the one metadata RPC dispatch: ``NodeServer._rpc``
    and the sim's node-0 controller call it.  :meth:`apply` takes the
    cluster's membership commands.  The sim's instance shares the live
    controllers' state by reference.
    """

    def __init__(self, membership: Optional[MembershipTable] = None):
        self.membership = membership
        self.nodes: Dict[int, SegmentState] = {}
        self.weights: Optional[GlobalWeights] = None

    def adopt_node(self, state: SegmentState) -> None:
        self.nodes[state.node_id] = state

    def adopt_weights(self, weights: GlobalWeights) -> None:
        self.weights = weights

    # -- the RPC dispatch ----------------------------------------------------

    def serve(self, op: str, node_id: int, payload, token: int = 0):
        """Answer one metadata RPC addressed to ``node_id``; raises on error.
        ``token`` (resend dedup) reaches ``DurableSegmentState.alloc``."""
        if op in SegmentState.RPC_OPS:
            return self.nodes[node_id].serve(op, payload, token)
        if op == "get_membership":
            if self.membership is None:
                raise KeyError(
                    f"node {node_id} does not host the membership table"
                )
            return self.membership.snapshot()
        if op == "update_weights":
            if self.weights is None:
                raise KeyError(
                    f"node {node_id} does not host the global weights"
                )
            return self.weights.handle_update(list(payload))
        raise KeyError(f"no RPC handler registered for {op!r}")

    # -- membership commands -------------------------------------------------

    def apply(self, command: Tuple) -> int:
        """Apply one membership command, ``("add_node", node_id)`` or
        ``("membership_set", node_id, state)``, stamp every hosted
        controller with the new epoch and return it."""
        kind, node_id = command[0], command[1]
        if kind == "add_node":
            epoch = self.membership.add(node_id)
        elif kind == "membership_set":
            state = command[2]
            epoch = self.membership.set_state(node_id, state)
            seg = self.nodes.get(node_id)
            if seg is not None:
                if state == DRAINING:
                    seg.draining = True
                elif state == ACTIVE:
                    seg.draining = False
        else:
            raise KeyError(f"not a membership command: {kind!r}")
        for seg in self.nodes.values():
            seg.epoch = epoch
        return epoch


class EpochFence:
    """Address-range admission control enforcing the membership epoch.

    The fence models the MN-side check a real deployment performs against
    the epoch tagged on each request: once a node starts draining, WRITE-
    class verbs into its heap are rejected; once it is retired, everything
    is.  Rejection is immediate (no timeout burn — the NACK carries the
    current epoch) and surfaces client-side as :class:`StaleEpoch`.
    """

    __slots__ = ("epoch", "_write_fenced", "_retired", "_retired_nodes")

    def __init__(self):
        self.epoch = 0
        #: (base, end, node_id) ranges where mutating verbs are fenced.
        self._write_fenced: List[Tuple[int, int, int]] = []
        #: (base, end, node_id) ranges where *all* verbs are fenced.
        self._retired: List[Tuple[int, int, int]] = []
        self._retired_nodes = set()

    # -- state transitions (driven by the cluster's membership changes) ----

    def advance(self, epoch: int) -> None:
        self.epoch = epoch

    def fence_writes(self, base: int, end: int, node_id: int) -> None:
        self._write_fenced.append((base, end, node_id))

    def lift_writes(self, node_id: int) -> None:
        self._write_fenced = [
            entry for entry in self._write_fenced if entry[2] != node_id
        ]

    def retire(self, base: int, end: int, node_id: int) -> None:
        self.lift_writes(node_id)
        self._retired.append((base, end, node_id))
        self._retired_nodes.add(node_id)

    # -- verb-side checks ---------------------------------------------------

    def _reject(self, verb: str, node_id: int, why: str) -> None:
        raise StaleEpoch(
            f"{verb} fenced at epoch {self.epoch}: {why}",
            verb=verb, node_id=node_id, epoch=self.epoch,
        )

    def check_read(self, addr: int, verb: str, node_id: int) -> None:
        for base, end, nid in self._retired:
            if base <= addr < end:
                self._reject(verb, nid, f"node {nid} retired")

    def check_write(self, addr: int, verb: str, node_id: int) -> None:
        for base, end, nid in self._retired:
            if base <= addr < end:
                self._reject(verb, nid, f"node {nid} retired")
        for base, end, nid in self._write_fenced:
            if base <= addr < end:
                self._reject(verb, nid, f"node {nid} draining")

    def check_rpc(self, node_id: int, verb: str) -> None:
        if node_id in self._retired_nodes:
            self._reject(verb, node_id, f"node {node_id} retired")


class MigrationRecord:
    """Progress/outcome of one node drain (exposed via ``cluster.migrations``)."""

    def __init__(self, node_id: int, epoch_start: int, started_us: float):
        self.node_id = node_id
        self.epoch_start = epoch_start
        self.epoch_end: Optional[int] = None
        self.phase = "pending"  # pending -> copy -> handoff -> done/aborted
        self.started_us = started_us
        self.finished_us: Optional[float] = None
        self.migrated_bytes = 0
        self.migrated_objects = 0
        self.cas_lost = 0
        self.passes = 0

    def as_dict(self) -> Dict:
        return {
            "node_id": self.node_id,
            "phase": self.phase,
            "epoch_start": self.epoch_start,
            "epoch_end": self.epoch_end,
            "started_us": self.started_us,
            "finished_us": self.finished_us,
            "migrated_bytes": self.migrated_bytes,
            "migrated_objects": self.migrated_objects,
            "cas_lost": self.cas_lost,
            "passes": self.passes,
        }


class Migrator:
    """Executes the two-phase drain of one memory node as a sim process.

    Runs with its own endpoint and striped allocator (grant-log owner
    ``MIGRATOR_OWNER_BASE - node_id``) so its traffic contends for the NICs
    like any client's, but it is *not* a cache client: fault-plan client
    crashes cannot kill it, matching a controller-driven migration service.
    Its endpoint carries no fence — the migration QP stays registered until
    deregistration, which is what lets it move stragglers right up to the
    retire point.
    """

    def __init__(self, cluster, node, record: MigrationRecord, on_phase=None):
        self.cluster = cluster
        self.node = node
        self.record = record
        self.on_phase = on_phase
        self.counters = cluster.counters
        self.tracer = cluster.tracer
        self.ep = cluster.make_endpoint(self)
        self.alloc = StripedAllocator(
            self.ep, cluster.nodes,
            min(cluster.segment_bytes, MIGRATION_SEGMENT_BYTES),
            owner=MIGRATOR_OWNER_BASE - node.node_id,
        )
        self.alloc.set_active(
            [n.node_id for n in cluster.nodes if n.node_id != node.node_id]
        )

    # -- helpers ------------------------------------------------------------

    def _notify(self, phase: str) -> None:
        self.record.phase = phase
        if self.on_phase is not None:
            self.on_phase(phase)
        if self.tracer is not None:
            self.tracer.instant(
                "migrate.phase", "migrate",
                {"phase": phase, "node": self.node.node_id},
            )

    # -- the drain ----------------------------------------------------------

    def drain(self):
        """The drain process: copy phase, then fenced handoff.

        A drain that cannot make progress (surviving nodes out of memory,
        faults outlasting the generous retry budget, a workload that races
        data back endlessly) *aborts* instead of unwinding the engine: the
        node reverts to ACTIVE at a new epoch, the write fence lifts, and
        everything already copied stays owned by a survivor — the system is
        exactly as recoverable as before the attempt.
        """
        cluster = self.cluster
        rec = self.record
        t0 = cluster.engine.now
        try:
            # The DRAINING flip is the drain's first step; the fence arms
            # at its epoch.
            epoch = self._flip(DRAINING)
            cluster.fence.fence_writes(
                self.node.base, self.node.end, self.node.node_id
            )
            cluster._publish_epoch(epoch)
            rec.epoch_start = epoch
            # Phase 1 — copy: hot-first passes until a pass moves nothing.
            self._notify("copy")
            t_copy = cluster.engine.now
            yield from self._passes_until_clean("drain")
            if self.tracer is not None:
                self.tracer.complete_at(
                    "migrate.copy", "migrate", t_copy,
                    cluster.engine.now - t_copy,
                    args={"node": self.node.node_id,
                          "objects": rec.migrated_objects},
                )
            # Phase 2 — handoff: the verify scan must observe one clean pass
            # *after* the copy loop's clean pass; in-flight installs whose
            # WRITE predated the drain fence land their CAS within one RTT,
            # far inside a single scan pass, so two consecutive clean scans
            # close the race.
            self._notify("handoff")
            t_handoff = cluster.engine.now
            yield from self._passes_until_clean("handoff")
            epoch_end = self._flip(RETIRED)
        except MigrationError:
            epoch = self._flip(ACTIVE)
            survivor = cluster._abort_drain(self, epoch)
            yield from self._reassign_grants_to(survivor)
            self._notify("aborted")
            rec.finished_us = cluster.engine.now
            return rec
        # Synchronous retire: no yield between the fence flip and the purge,
        # so no verb can observe a half-retired node.
        survivor = cluster._finish_drain(self, epoch_end)
        yield from self._reassign_grants_to(survivor)
        if self.tracer is not None:
            self.tracer.complete_at(
                "migrate.handoff", "migrate", t_handoff,
                cluster.engine.now - t_handoff,
                args={"node": self.node.node_id},
            )
            self.tracer.complete_at(
                "migrate.drain", "migrate", t0, cluster.engine.now - t0,
                args=rec.as_dict(),
            )
        self._notify("done")
        rec.finished_us = cluster.engine.now
        return rec

    def _flip(self, state: str) -> int:
        """Flip the draining node's membership state; returns the epoch."""
        return self.cluster.metadata.apply(
            ("membership_set", self.node.node_id, state)
        )

    def _reassign_grants_to(self, survivor):
        """Move the migration allocator's grant-log entries to the client
        that adopted its state, so a later crash of that client reconciles
        the full set.  Best effort: if a fault window outlasts even this
        retry budget the grants stay parked under the migrator's owner id —
        unreachable but accounted (the sweep tiles grants against regions
        regardless of owner)."""
        if survivor is None:
            return
        owner = self.alloc.owner
        for target in list(self.cluster.nodes):
            try:
                yield from self._with_retries(
                    lambda n=target: self.ep.rpc(
                        n, "reassign_grants", (owner, survivor.client_id)
                    )
                )
            except MigrationError:
                self.counters.add("migration_reassign_failed")
                break

    def _passes_until_clean(self, phase: str):
        """Full table scans until one moves nothing."""
        rec = self.record
        while True:
            moved = yield from self._pass()
            rec.passes += 1
            if moved == 0:
                return
            if rec.passes >= MAX_DRAIN_PASSES:
                raise MigrationError(
                    f"{phase} of node {self.node.node_id} still found "
                    f"objects to move after {rec.passes} passes"
                )

    def _pass(self):
        """One full table scan; moves every object still on the node.

        Returns the number of objects moved (0 = clean pass).  Candidates
        are ordered hot-data-first using the access information already in
        the sample-friendly slots (freq, then recency), so if the drain is
        interrupted the hottest objects are the ones already safe.
        """
        lay = self.cluster.layout
        base, end = self.node.base, self.node.end
        candidates: List[L.Slot] = []
        index = 0
        while index < lay.total_slots:
            count = min(SCAN_CHUNK_SLOTS, lay.total_slots - index)
            addr = lay.slot_addr(index)
            raw = yield from self._with_retries(
                lambda a=addr, c=count: self.ep.read(a, c * L.SLOT_SIZE)
            )
            slots = L.Bucket(index, addr, raw, count)
            for i in slots.objects():
                slot = slots.slot(i)
                if base <= slot.pointer < end:
                    candidates.append(slot)
            index += count
        candidates.sort(key=lambda s: (-s.freq, -s.last_ts))
        moved = 0
        for slot in candidates:
            done = yield from self._copy_one(slot)
            if done:
                moved += 1
        return moved

    def _copy_one(self, slot: L.Slot):
        """Move one object off the draining node; True if this call moved it.

        READ old block → allocate on a surviving node → WRITE copy → CAS the
        slot atomic from the old packed word to the new one.  A CAS miss
        means a concurrent update/delete/eviction won the race — the object
        either moved already or no longer exists; either way the new block
        is returned and the next pass re-checks the slot.  The budget ledger
        is untouched: the object stays one live object of the same size,
        only the backing block changes.
        """
        span = slot.object_bytes
        new_addr = None
        try:
            raw = yield from self._with_retries(
                lambda: self.ep.read(slot.pointer, span)
            )
            new_addr = yield from self._with_retries(self._alloc_gen(span))
            yield from self._with_retries(
                lambda: self.ep.write(new_addr, raw)
            )
            new_atomic = L.pack_atomic(
                new_addr, slot.fp, slot.size_blocks
            )
            old = yield from self._with_retries(
                lambda: self.ep.cas(slot.addr, slot.atomic, new_atomic)
            )
        except MigrationError:
            if new_addr is not None:
                self.alloc.free(new_addr, span)
            raise
        if old != slot.atomic:
            self.alloc.free(new_addr, span)
            self.record.cas_lost += 1
            self.counters.add("migration_cas_lost")
            return False
        self.alloc.free(slot.pointer, span)
        self.record.migrated_objects += 1
        self.record.migrated_bytes += span
        self.counters.add("migrated_objects")
        self.counters.add("migrated_bytes", span)
        return True

    def _alloc_gen(self, span: int):
        def gen():
            try:
                addr = yield from self.alloc.alloc(span)
            except OutOfMemoryError as err:
                raise MigrationError(
                    f"surviving nodes out of segments while draining node "
                    f"{self.node.node_id}: {err}"
                ) from err
            return addr
        return gen

    def _with_retries(self, make_gen):
        """Run one migration step under the cluster's control-plane retry
        loop; an exhausted budget aborts the drain."""
        try:
            result = yield from self.cluster._retrying(
                make_gen, give_up="migration_failed"
            )
        except RdmaFaultError as err:
            raise MigrationError(
                f"drain of node {self.node.node_id} gave up after "
                f"{CONTROL_RETRY_LIMIT} fault retries"
            ) from err
        return result


__all__ = [
    "ACTIVE",
    "DRAINING",
    "RETIRED",
    "EpochFence",
    "MembershipTable",
    "MetadataState",
    "MigrationError",
    "MigrationRecord",
    "Migrator",
    "StaleEpoch",
]
