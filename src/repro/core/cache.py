"""Deployment wiring (:class:`DittoCluster`) and the user-facing synchronous
cache façade (:class:`DittoCache`).

``DittoCluster`` assembles a complete Ditto deployment on simulated
disaggregated memory: one memory node with a weak controller, the
sample-friendly hash table and global history counter at its base, a shared
memory budget (the elastic "memory resource"), and any number of client
threads in the compute pool.  Experiments drive clusters in *timed* mode
(clients as concurrent processes under a contended NIC); applications use
``DittoCache``, which drives one operation at a time to completion (*instant*
mode) and exposes an ordinary ``get``/``set``/``delete`` API.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple, Union

from ..memory import Controller, MemoryBudget, MemoryNode, MemoryPool
from ..obs.observer import Observability
from ..obs.observer import current as obs_current
from ..rdma.params import NetworkParams
from ..rdma.verbs import RdmaEndpoint, RdmaFaultError
from ..sim import CounterSet, Engine
from ..sim.faults import FaultInjector, FaultPlan
from .adaptive import GlobalWeights
from .client import DittoClient
from .config import DittoConfig
from .consensus import ControllerGroup
from .elasticity import (
    ACTIVE,
    CONTROL_RETRY_LIMIT,
    EpochFence,
    MembershipTable,
    MetadataState,
    MigrationError,
    MigrationRecord,
    Migrator,
)
from .geometry import plan_cluster
from .history import RemoteFifoHistory
from .retry import backoff_us


class DittoCluster:
    """A Ditto deployment: memory pool + compute-pool clients."""

    def __init__(
        self,
        capacity_objects: int = 4096,
        object_bytes: int = 256,
        num_clients: int = 1,
        config: Optional[DittoConfig] = None,
        params: Optional[NetworkParams] = None,
        seed: int = 0,
        segment_bytes: int = 256 * 1024,
        engine: Optional[Engine] = None,
        max_capacity_objects: Optional[int] = None,
        num_memory_nodes: int = 1,
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        obs: Optional[Observability] = None,
        controller_replicas: int = 0,
    ):
        """``max_capacity_objects`` provisions the memory pool for future
        elastic growth (default: the initial capacity); ``resize_memory``
        may grow the budget up to that bound without reprovisioning.

        With ``num_memory_nodes > 1`` the pool spans several MNs: the hash
        table, history counter, and expert weights live on node 0 and the
        object heap stripes across all nodes, spreading data-path verbs over
        every node's NIC (the paper's multi-MN compatibility, §5.1).

        ``controller_replicas > 0`` replicates the controller metadata
        (DESIGN §3.6): a :class:`~repro.core.consensus.ControllerGroup` of
        that many raft-style replicas runs over the cluster's physical
        :class:`MetadataState`, and segment-management and membership RPCs
        from clients and migrators route through the group (majority
        commit, leader redirects, session dedup), so any minority of
        controller replicas can crash or partition — even mid-drain —
        without losing metadata or blocking the cluster."""
        self.engine = engine or Engine()
        self.config = config or DittoConfig()
        self.params = params or NetworkParams()
        # Fault injection: ``None`` (the default) keeps every path — verbs,
        # clients, recovery — on the zero-overhead healthy fast path and the
        # outputs byte-identical to a build without this subsystem.
        if faults is None:
            self.fault_injector: Optional[FaultInjector] = None
        elif isinstance(faults, FaultInjector):
            self.fault_injector = faults
        else:
            self.fault_injector = FaultInjector(self.engine, faults)
        # Observability (repro.obs): the hub comes from the ``obs`` argument
        # or the process-wide runtime; with neither, ``tracer`` stays None
        # and every instrumented path is inert.
        if obs is None:
            obs = obs_current()
        self.obs = obs
        self.tracer = obs.bind(self.engine, label="ditto") if obs is not None else None
        if self.fault_injector is not None and self.tracer is not None:
            self.fault_injector.tracer = self.tracer
            # A plan passed at construction armed before the tracer
            # existed; annotate its windows retroactively.
            self.tracer.fault_windows(self.fault_injector.plan.to_dict())
        self.seed = seed
        self.segment_bytes = segment_bytes
        self.capacity_objects = capacity_objects
        self.object_bytes = object_bytes

        # Memory geometry: the plan is the single source of truth shared
        # with the real-process substrate (repro.core.geometry) — both
        # substrates must resolve addresses identically.
        plan = plan_cluster(
            capacity_objects, object_bytes, num_clients,
            config=self.config, num_memory_nodes=num_memory_nodes,
            segment_bytes=segment_bytes,
            max_capacity_objects=max_capacity_objects,
        )
        self.ext_fields: Tuple[str, ...] = plan.ext_fields
        self.block_bytes_per_object = plan.block_bytes_per_object
        self.budget = MemoryBudget(plan.budget_bytes)
        self.max_capacity_objects = plan.max_capacity_objects
        self.layout = plan.layout
        self.history_size = plan.history_size

        reserve = plan.reserve
        self.remote_history: Optional[RemoteFifoHistory] = None
        if not self.config.use_lwh:
            self.remote_history = RemoteFifoHistory(
                plan.layout.reserved_bytes, self.history_size
            )

        self._heap_per_node = plan.heap_per_node
        self.nodes = []
        for node_id, node_base, size in plan.node_ranges:
            node = MemoryNode(
                self.engine, size=size, base=node_base, node_id=node_id,
                params=self.params,
            )
            Controller(node, cores=1, reserve=reserve if node_id == 0 else 0)
            self.nodes.append(node)
        self.node = self.nodes[0]
        self.pool = MemoryPool(self.nodes)
        self.controller = self.node.controller
        # -- elastic memory-node membership --------------------------------
        #: High-water mark of the global address space: a node added later
        #: gets a fresh range above everything ever provisioned, so retired
        #: ranges are never reused and a stale pointer stays detectable.
        self._addr_high = self.nodes[-1].end
        self._next_node_id = num_memory_nodes
        #: Membership table + epoch fence, created by the first membership
        #: change (``_ensure_elastic``).  Until then both stay None and all
        #: verbs take the unfenced fast path — default runs are byte-
        #: identical to a build without the elasticity subsystem.
        self.membership: Optional[MembershipTable] = None
        self.fence: Optional[EpochFence] = None
        self._epoch_gauge = None
        #: Records of node drains, oldest first (``MigrationRecord``).
        self.migrations: List[MigrationRecord] = []
        #: Drains currently in flight (their allocators are part of the
        #: memory-accounting sweep until adoption).
        self._active_migrators: List[Migrator] = []
        self._shrink_proc = None

        #: This cluster's label in metric names and watch timelines.
        self._obs_id = str(self.tracer.pid) if self.tracer is not None else "0"
        self._obs_prefix = f"c{self._obs_id}." if self._obs_id != "0" else ""
        for node in self.nodes:
            self._watch_node(node)
        if self.obs is not None:
            self.obs.watch(f"{self._obs_prefix}budget", self.budget, self.engine)

        self.global_weights = GlobalWeights(
            num_experts=self.config.num_experts,
            learning_rate=self.config.learning_rate,
        )
        # Every controller's SegmentState and the live weights, by
        # reference; node 0 answers cluster-level metadata RPCs through it.
        self._metadata = MetadataState()
        for node in self.nodes:
            self._metadata.adopt_node(node.controller.state)
        self._metadata.adopt_weights(self.global_weights)
        for op in ("update_weights", "get_membership"):
            self.controller.register(
                op, partial(self._metadata.serve, op, 0), cpu_us=0.5
            )
        if self.obs is not None:
            self._wire_weight_metrics()

        self.counters = CounterSet()
        if self.obs is not None:
            self.obs.registry.bridge(self.counters, component="cluster",
                                     cluster=self._obs_id)
        self.object_count = 0
        self.clients: List[DittoClient] = []
        # Client ids are monotonic so a departed client's id (and its grant
        # log at the controllers) is never silently reused by a newcomer.
        self._next_client_id = 0
        #: Replicated controller group (``repro.core.consensus``); stays
        #: None — with zero overhead and byte-identical outputs — unless
        #: ``controller_replicas`` > 0.
        self.consensus: Optional[ControllerGroup] = None
        self._cluster_consensus = None
        if controller_replicas:
            self._ensure_elastic()
            self.consensus = ControllerGroup(
                self.engine, self._metadata, controller_replicas, self.seed,
                faults=self.fault_injector, counters=self.counters,
                tracer=self.tracer,
            )
            #: The cluster's own submission handle (add_memory_node etc.).
            self._cluster_consensus = self.consensus.make_client()
        self.add_clients(num_clients)

    def _watch_node(self, node) -> None:
        """Put one memory node's controller spans and NIC/CPU timelines on
        the observability hub (inert without one)."""
        if self.obs is None:
            return
        if self.tracer is not None:
            node.controller.tracer = self.tracer
        name = f"{self._obs_prefix}mn{node.node_id}"
        self.obs.watch(f"{name}.nic", node.nic, self.engine)
        self.obs.watch(f"{name}.cpu", node.controller.cpu, self.engine)

    def _wire_weight_metrics(self) -> None:
        """Publish global expert-weight updates to the metrics/trace layer."""
        registry = self.obs.registry
        obs_id = self._obs_id
        updates = registry.counter(
            "adaptive.updates", component="controller", cluster=obs_id
        )
        gauges = [
            registry.gauge("adaptive.weight", policy=policy, cluster=obs_id)
            for policy in self.config.policies
        ]
        tracer = self.tracer

        def on_update(weights):
            updates.add(1)
            for gauge, weight in zip(gauges, weights):
                gauge.set(weight)
            if tracer is not None:
                tracer.instant(
                    "adaptive.update", "controller",
                    {"weights": [round(w, 4) for w in weights]},
                )

        self.global_weights.on_update = on_update

    def make_endpoint(self, client) -> "RdmaEndpoint":
        """Build the verb transport for one client — the substrate seam.

        The sim cluster hands out :class:`~repro.rdma.verbs.RdmaEndpoint`s
        over its memory pool; :class:`repro.runtime.cluster.RealCluster`
        overrides this same hook with socket/shared-memory endpoints, and
        :class:`~repro.core.client.DittoClient` never knows the difference
        (DESIGN §3.7).
        """
        return RdmaEndpoint(
            self.engine,
            self.pool,
            self.params,
            counters=self.counters,
            faults=self.fault_injector,
            tracer=client.tracer,
        )

    # -- elasticity knobs --------------------------------------------------

    def add_clients(self, n: int) -> List[DittoClient]:
        """Scale compute: new client threads join with no data movement."""
        new = []
        for _ in range(n):
            client = DittoClient(
                self, client_id=self._next_client_id, seed=self.seed
            )
            self._next_client_id += 1
            new.append(client)
        self.clients.extend(new)
        return new

    def remove_clients(self, n: int) -> None:
        """Scale compute down: departing clients release their grants.

        A graceful leave runs the same reconciliation as crash recovery —
        undo markers, grant diff, allocator adoption — then reassigns the
        leaver's grant-log entries to the survivor, so nothing stays parked
        under an id that no longer exists.  (The old implementation just
        dropped the client objects, leaking their segments forever.)
        """
        if n > len(self.clients) - 1:
            raise ValueError("cannot remove all clients")
        departing = self.clients[len(self.clients) - n :]
        del self.clients[len(self.clients) - n :]
        survivor = next((c for c in self.clients if not c.dead), None)
        for client in departing:
            if client.dead:
                continue  # crashed earlier; recovery already owns its state
            client.dead = True
            if survivor is None:
                continue  # nobody left to absorb; the sweep will flag leaks
            self.engine.run_process(self._release_client(client, survivor))

    def _release_client(self, leaving, survivor):
        """Graceful client departure: crash reconciliation without the
        detection delay, plus grant-log reassignment to the survivor."""
        try:
            yield from self.recover_client(leaving, survivor)
            for node in list(self.nodes):
                if node not in self.nodes:
                    continue  # removed by a concurrent drain
                yield from self._recovery_rpc(
                    survivor, node, "reassign_grants",
                    (leaving.client_id, survivor.client_id),
                )
            self.counters.add("client_leave")
        except RdmaFaultError:
            pass  # counted as crash_recovery_failed; sweep reports leftovers

    def resize_memory(self, capacity_objects: int) -> None:
        """Scale the memory *budget* (no node set change, so no migration).

        Growth is bounded by the provisioned pool
        (``max_capacity_objects``).  Shrinking starts a background eviction
        process that actively converges usage to the new limit instead of
        waiting for future inserts to squeeze it down, bounding the
        over-budget window (counter ``shrink_evicted_bytes``).
        """
        if capacity_objects > self.max_capacity_objects:
            raise ValueError(
                f"cannot grow to {capacity_objects} objects: pool provisioned "
                f"for {self.max_capacity_objects} (set max_capacity_objects)"
            )
        self.capacity_objects = capacity_objects
        self.budget.resize(capacity_objects * self.block_bytes_per_object)
        if self.budget.over_limit:
            self._start_shrink()

    def _start_shrink(self) -> None:
        if self._shrink_proc is not None and not self._shrink_proc.finished:
            return  # an earlier shrink is still converging
        self._shrink_proc = self.engine.spawn(
            self._shrink_process(), name="shrink_evictor"
        )

    def _shrink_process(self):
        """Evict until the cache fits the reduced budget.

        Runs the normal sampled-eviction path through a live client, so the
        adaptive policy chooses the victims; bails out after repeated
        failures (everything pinned by faults) rather than spinning."""
        failures = 0
        t0 = self.engine.now
        while self.budget.over_limit:
            client = next((c for c in self.clients if not c.dead), None)
            if client is None:
                break
            before = self.budget.used_bytes
            try:
                evicted = yield from client._evict_once()
            except RdmaFaultError:
                evicted = False
            if evicted:
                failures = 0
                self.counters.add("shrink_evictions")
                self.counters.add(
                    "shrink_evicted_bytes",
                    max(0, before - self.budget.used_bytes),
                )
            else:
                failures += 1
                if failures > self.config.max_retries:
                    break
                backoff = self.config.retry_backoff_us or 20.0
                yield backoff
        if self.tracer is not None:
            self.tracer.complete_at(
                "memory.shrink", "cluster", t0, self.engine.now - t0,
                args={"limit_bytes": self.budget.limit_bytes,
                      "used_bytes": self.budget.used_bytes},
            )

    # -- elastic memory nodes (epoch-fenced membership) ---------------------

    def _ensure_elastic(self) -> None:
        """Arm the membership table and epoch fence (first scale
        event, or construction with a controller group).

        Lazy on purpose: until the node set actually changes, the fence
        stays None and every verb takes the unfenced fast path, keeping
        default runs byte-identical to the pre-elasticity build.
        """
        if self.membership is not None:
            return
        self.membership = MembershipTable(n.node_id for n in self.nodes)
        self.fence = EpochFence()
        # Flips are metadata commands (``_commit``); a fenced verb NACKs
        # with StaleEpoch and the client refreshes through node 0.
        self._metadata.membership = self.membership
        for client in self.clients:
            client.ep.fence = self.fence
        if self.obs is not None:
            self._epoch_gauge = self.obs.registry.gauge(
                "elastic.epoch", cluster=self._obs_id
            )

    def _commit(self, command, session=None):
        """Apply one membership command to the state machine; a generator.

        With a controller group the command commits through the replicated
        log under ``session`` (default: the cluster's own); without one it
        applies at once and the generator never yields.
        """
        if self.consensus is None:
            return self._metadata.apply_entry(None, 0, command)
        result = yield from (session or self._cluster_consensus).submit(command)
        return result

    def _publish_epoch(self, epoch: int) -> None:
        """Make a new membership epoch visible to fences (the controllers
        were stamped by the state machine)."""
        self.fence.advance(epoch)
        self.counters.add("epoch_bump")
        if self._epoch_gauge is not None:
            self._epoch_gauge.set(epoch)
        if self.tracer is not None:
            self.tracer.instant("membership.epoch", "migrate", {"epoch": epoch})

    def add_memory_node(self, size_bytes: Optional[int] = None) -> MemoryNode:
        """Grow the pool by one memory node (paper §7: elastic MN scaling).

        The node gets a fresh address range above everything ever
        provisioned, joins the membership table at a new epoch, and is
        announced to every client's striped allocator out of band (growth
        needs no fencing: a stale client that hasn't heard simply doesn't
        place data there yet).  Returns the new node.
        """
        self._ensure_elastic()
        node_id = self._next_node_id
        self._next_node_id += 1
        size = size_bytes if size_bytes is not None else self._heap_per_node
        node = MemoryNode(
            self.engine, size=size, base=self._addr_high, node_id=node_id,
            params=self.params,
        )
        Controller(node, cores=1)
        self._addr_high = node.end
        self.nodes.append(node)
        self.pool.add(node)
        for client in self.clients:
            client.alloc.add_node(node)
        # Pre-bind the new controller's state into the physical metadata,
        # then commit the join (replicas of a controller group build their
        # own copies from the command's range).
        self._metadata.adopt_node(node.controller.state)
        epoch = self.engine.run_process(
            self._commit(("add_node", node_id, node.base, node.end))
        )
        self._publish_epoch(epoch)
        self._watch_node(node)
        self.counters.add("mn_added")
        return node

    def remove_memory_node(self, node_id: int, on_phase=None):
        """Shrink the pool: drain ``node_id`` live, then retire it.

        Two-phase, epoch-fenced (DESIGN §3.4):

        * **Copy** — the drain's first step marks the node DRAINING (epoch
          bump), write-fences its heap range, and its controller stops
          granting segments.
          A migrator copies objects out hot-data-first (sampled freq /
          recency), installing each move with a CAS on the object's hash
          slot — concurrent client updates win the CAS and cost nothing.
          Reads keep hitting the source copy throughout (degraded mode:
          stale clients read from source until handoff; their writes are
          fenced onto the new owner).
        * **Handoff** — once a full scan moves nothing, a verify pass
          re-scans; when it too is clean, the node flips to RETIRED
          (second epoch bump), its range is fully fenced, and it leaves
          the pool atomically at a single simulated instant.

        Returns the drain :class:`~repro.sim.Process`; timed experiments
        run it concurrently with traffic, ``DittoCache`` runs it to
        completion.  ``on_phase(phase)`` fires at "copy", "handoff", and
        "done"/"aborted" (fault-injection hooks).
        """
        self._ensure_elastic()
        node = next((n for n in self.nodes if n.node_id == node_id), None)
        if node is None:
            raise ValueError(f"no memory node with id {node_id}")
        if node is self.node:
            raise ValueError(
                "node 0 hosts the hash table and global metadata; it cannot "
                "be removed"
            )
        if len(self.nodes) < 2:
            raise ValueError("cannot remove the last memory node")
        if self.membership.state(node_id) != ACTIVE:
            raise ValueError(f"node {node_id} is already draining or retired")
        if any(m.node.node_id == node_id for m in self._active_migrators):
            raise ValueError(f"node {node_id} already has a drain in flight")
        # Capacity precheck (best effort): the drain must place the node's
        # *live* data on fresh segments from the survivors.  Live bytes on
        # one node are unknown without a scan but cannot exceed either the
        # node's granted bytes or the cluster-wide budget usage; a shortfall
        # against that bound would wedge the copy mid-way, so refuse up
        # front.  (A mid-drain shortfall still aborts safely — the node
        # reverts to ACTIVE.)
        granted = sum(
            size
            for segs in node.controller.granted_segments().values()
            for _addr, size in segs
        )
        need = min(granted, self.budget.used_bytes)
        have = sum(
            n.controller.bytes_remaining for n in self.nodes if n is not node
        )
        if have < need:
            raise MigrationError(
                f"cannot drain node {node_id}: survivors have {have} bytes "
                f"free but up to {need} live bytes may need relocation"
            )
        # The migrator commits the DRAINING flip as its first step
        # (epoch_start is provisional until then).
        record = MigrationRecord(
            node_id=node_id, epoch_start=self.membership.epoch,
            started_us=self.engine.now,
        )
        self.migrations.append(record)
        migrator = Migrator(self, node, record, on_phase=on_phase)
        self._active_migrators.append(migrator)
        self.counters.add("mn_remove_started")
        return self.engine.spawn(migrator.drain(), name=f"drain_mn{node_id}")

    def _finish_drain(self, migrator, epoch: int) -> Optional[DittoClient]:
        """Atomic handoff: retire the drained node and purge references.

        Called by the migrator once the RETIRED flip (``epoch``) has
        committed, with no yields — fence, pool removal, and allocator purge
        all land at one simulated instant, so no verb can observe a
        half-retired node.  Returns the survivor that adopts the migrator's
        allocator (grant-log reassignment follows via RPC in the drain
        process), or None if every client is dead.
        """
        node = migrator.node
        self.fence.retire(node.base, node.end, node.node_id)
        self._publish_epoch(epoch)
        migrator.record.epoch_end = epoch
        for client in self.clients:
            client.alloc.drop_node(node)
        migrator.alloc.drop_node(node)
        self.pool.remove(node)
        self.nodes.remove(node)
        self._active_migrators.remove(migrator)
        self.counters.add("mn_removed")
        survivor = next((c for c in self.clients if not c.dead), None)
        if survivor is not None:
            survivor.alloc.adopt(migrator.alloc)
        return survivor

    def _abort_drain(self, migrator, epoch: int) -> Optional[DittoClient]:
        """Back out of a drain that cannot complete: the node is back to
        ACTIVE at ``epoch`` and the write fence lifts.  Objects already
        copied off stay where they landed (moving them back would be wasted
        work); the migrator's allocator state goes to a survivor so every
        byte stays accounted.  Synchronous, like :meth:`_finish_drain`."""
        self.fence.lift_writes(migrator.node.node_id)
        self._publish_epoch(epoch)
        migrator.record.epoch_end = epoch
        migrator.record.phase = "aborted"
        self._active_migrators.remove(migrator)
        self.counters.add("mn_remove_aborted")
        survivor = next((c for c in self.clients if not c.dead), None)
        if survivor is not None:
            survivor.alloc.adopt(migrator.alloc)
        return survivor

    # -- crash recovery (fault injection only) ------------------------------

    def crash_client(self, index: int) -> None:
        """Record that client ``index`` died and schedule its recovery.

        The caller (normally :meth:`repro.bench.runner.Harness` acting on a
        :class:`~repro.sim.faults.ClientCrash` event) kills the client's
        driver process at a yield boundary; this method handles the cluster
        side: mark the client dead and, after ``crash_detect_us`` (the
        liveness-lease expiry of the out-of-band quota service), have a
        surviving client reclaim whatever the dead one leaked.
        """
        client = self.clients[index]
        if client.dead:
            return
        client.dead = True
        self.counters.add("client_crash")
        self.engine.spawn(
            self._recovery_process(client), name=f"recover_client_{index}"
        )

    def _recovery_process(self, dead):
        yield self.config.crash_detect_us
        survivor = next((c for c in self.clients if not c.dead), None)
        if survivor is None:
            return  # nobody left to recover; the sweep will flag leaks
        try:
            yield from self.recover_client(dead, survivor)
        except RdmaFaultError:
            # Recovery gave up after exhausting its generous retry budget
            # (counter ``crash_recovery_failed``); don't unwind the engine.
            pass

    def recover_client(self, dead, survivor):
        """Reclaim everything a crashed client leaked, as ``survivor``.

        Three steps, mirroring what a real deployment's lease-based
        metadata service enables:

        1. *Undo log*: the dead client's in-flight op markers
           (``_pending_block``/``_pending_budget``) name the block and
           budget it held but had not committed; return both.
        2. *Grant reconciliation*: ask every controller for the dead
           client's segment grants (``list_segments`` RPC) and diff against
           its client-side records — a grant the client never learned about
           (killed mid-RPC) is returned via ``free_segment``.
        3. *Adoption*: the survivor absorbs the dead allocator's free
           lists, bump remainder, and spare regions so the memory stays
           usable.
        """
        if dead._pending_block is not None:
            addr, span = dead._pending_block
            dead._pending_block = None
            survivor.alloc.free(addr, span)
            self.counters.add("crash_block_reclaimed")
        if dead._pending_budget:
            self.budget.release(dead._pending_budget)
            dead._pending_budget = 0
        for node in self.nodes:
            granted = yield from self._recovery_rpc(
                survivor, node, "list_segments", dead.client_id
            )
            dead_alloc = dead.alloc.allocator_for_node(node)
            recorded = set(dead_alloc.segments)
            for addr, size in granted:
                if (addr, size) in recorded:
                    continue
                # In-flight grant: the controller handed it out but the
                # client died before the response landed.
                yield from self._recovery_rpc(
                    survivor, node, "free_segment", (addr, size)
                )
                self.counters.add("crash_segment_returned")
        survivor.alloc.adopt(dead.alloc)
        self.counters.add("crash_recovery")

    def _recovery_rpc(self, survivor, node, op, payload):
        """A recovery RPC with (generous) fault retries: recovery itself can
        run inside the fault window that caused the crash."""
        result = yield from self._retrying(
            lambda: survivor.ep.metadata(node, op, payload), survivor
        )
        return result

    def _retrying(self, step, survivor=None, give_up="crash_recovery_failed"):
        """Run one control-plane step (``step()`` makes its generator),
        retrying around injected fault windows.

        Crash recovery and the drain share this loop: one budget
        (``CONTROL_RETRY_LIMIT``), backoff drawn from ``survivor`` or else
        the first live client.  A persistently unreachable target counts
        ``give_up`` and re-raises rather than spin the engine forever; the
        invariant sweep reports the unreconciled state.
        """
        attempt = 0
        while True:
            try:
                result = yield from step()
                return result
            except RdmaFaultError:
                attempt += 1
                if attempt > CONTROL_RETRY_LIMIT:
                    self.counters.add(give_up)
                    raise
                self.counters.add("fault_retry")
                client = survivor or next(
                    (c for c in self.clients if not c.dead), None
                )
                if client is not None:
                    delay = client._backoff_us(min(attempt, 8))
                else:
                    # No live client RNG to draw jitter from.
                    delay = backoff_us(
                        min(attempt, 8), base=self.config.retry_backoff_us
                    )
                if delay > 0.0:
                    yield delay

    # -- aggregated statistics ----------------------------------------------

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self.clients)

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self.clients)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "objects": self.object_count,
            "evictions": sum(c.evictions for c in self.clients),
            "regrets": sum(c.regrets for c in self.clients),
            "used_bytes": self.budget.used_bytes,
            "limit_bytes": self.budget.limit_bytes,
            "sim_time_us": self.engine.now,
            **{k: float(v) for k, v in self.counters.as_dict().items()},
        }


def _to_bytes(data: Union[str, bytes]) -> bytes:
    if isinstance(data, str):
        return data.encode("utf-8")
    if isinstance(data, (bytes, bytearray, memoryview)):
        return bytes(data)
    raise TypeError(f"keys/values must be str or bytes, got {type(data).__name__}")


class DittoCache:
    """Synchronous cache API over a Ditto deployment (instant mode).

    >>> cache = DittoCache(capacity_objects=1024)
    >>> cache.set("user:1", b"alice")
    >>> cache.get("user:1")
    b'alice'

    Keys and values are ``str`` or ``bytes``.  Operations round-robin across
    the configured client threads so metadata updates and adaptive weights
    behave as in a multi-client deployment.
    """

    def __init__(
        self,
        capacity_objects: int = 4096,
        object_bytes: int = 256,
        policies: Tuple[str, ...] = ("lru", "lfu"),
        num_clients: int = 1,
        seed: int = 0,
        params: Optional[NetworkParams] = None,
        max_capacity_objects: Optional[int] = None,
        num_memory_nodes: int = 1,
        **config_kwargs,
    ):
        config = DittoConfig(policies=tuple(policies), **config_kwargs)
        self.cluster = DittoCluster(
            capacity_objects=capacity_objects,
            object_bytes=object_bytes,
            num_clients=num_clients,
            config=config,
            params=params,
            seed=seed,
            max_capacity_objects=max_capacity_objects,
            num_memory_nodes=num_memory_nodes,
        )
        self._next_client = 0

    def _client(self) -> DittoClient:
        client = self.cluster.clients[self._next_client]
        self._next_client = (self._next_client + 1) % len(self.cluster.clients)
        return client

    def _run(self, gen):
        return self.cluster.engine.run_process(gen)

    # -- cache operations ---------------------------------------------------

    def set(self, key: Union[str, bytes], value: Union[str, bytes]) -> None:
        self._run(self._client().set(_to_bytes(key), _to_bytes(value)))

    def get(self, key: Union[str, bytes]) -> Optional[bytes]:
        return self._run(self._client().get(_to_bytes(key)))

    def delete(self, key: Union[str, bytes]) -> bool:
        return self._run(self._client().delete(_to_bytes(key)))

    def get_or_load(self, key: Union[str, bytes], loader) -> bytes:
        """Cache-aside helper: on a miss, call ``loader()`` and cache it."""
        value = self.get(key)
        if value is None:
            value = _to_bytes(loader())
            self.set(key, value)
        return value

    def __contains__(self, key: Union[str, bytes]) -> bool:
        # Peek without perturbing hotness: check then compensate is not
        # possible remotely, so __contains__ is an ordinary Get.
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.cluster.object_count

    # -- elasticity ----------------------------------------------------------

    def scale_clients(self, num_clients: int) -> None:
        current = len(self.cluster.clients)
        if num_clients > current:
            self.cluster.add_clients(num_clients - current)
        elif num_clients < current:
            self.cluster.remove_clients(current - num_clients)
        self._next_client = 0

    def resize(self, capacity_objects: int) -> None:
        self.cluster.resize_memory(capacity_objects)
        if self.cluster.budget.over_limit:
            # Instant mode: drive the background shrink evictor until usage
            # converges to the reduced budget before returning.
            self.cluster.engine.run()

    def add_memory_node(self) -> int:
        """Grow the memory pool by one node; returns the new node's id."""
        return self.cluster.add_memory_node().node_id

    def remove_memory_node(self, node_id: int) -> Dict:
        """Drain and retire a memory node, blocking until migration ends.

        Returns the migration record as a dict (phase, migrated bytes and
        objects, epoch span).  Raises if the drain aborted.
        """
        self.cluster.remove_memory_node(node_id)
        self.cluster.engine.run()
        record = self.cluster.migrations[-1]
        if record.phase != "done":
            raise RuntimeError(
                f"drain of node {node_id} ended in phase {record.phase!r}"
            )
        return record.as_dict()

    # -- introspection --------------------------------------------------------

    def hit_rate(self) -> float:
        return self.cluster.hit_rate()

    def stats(self) -> Dict[str, float]:
        return self.cluster.stats()

    @property
    def expert_weights(self) -> Dict[str, float]:
        """Current global expert weights (adaptive caching state)."""
        return dict(
            zip(self.cluster.config.policies, self.cluster.global_weights.weights)
        )
