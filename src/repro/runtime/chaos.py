"""Wall-clock chaos: the sim's fault model executed against live processes.

The simulator's robustness story is seed-driven and declarative: a
:class:`~repro.sim.faults.FaultPlan` describes verb drops, latency
spikes, and node outages, and the engine's fault injector answers point
queries at verb-issue time.  This module brings the *same plans* to the
real substrate:

- the gate is :class:`~repro.sim.faults.FaultInjector` itself, armed
  inside each memory-node server on a wall clock that counts from the
  common arm instant.  Plans are compiled from sim-time to wall-clock with
  :func:`repro.sim.faults.compile_wall` and consulted per request frame:
  a DROP swallows the request *before it executes* (the client times out
  — the sim's drop semantics exactly), a node-outage window closes the
  connection before executing (``NodeUnavailable``), and a latency spike
  delays execution+response without blocking the multiplexed stream.

- :func:`run_chaos` — the chaos harness: drives the standard load
  generator under an armed plan (optionally SIGKILLing and
  restart-adopting a memory node mid-load), then quiesces, reconciles
  orphaned grants through the same ``list_segments`` diff crash recovery
  uses, runs lease-repair scrubs, and finishes with the memory-accounting
  sweep (:mod:`repro.core.invariants`) evaluated over the *real* shared-
  memory heaps.

What maps 1:1, what is approximated, and the compilation rule are
documented in DESIGN §3.8.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

from ..core import invariants
from ..obs.observer import current as obs_current
from ..obs.observer import maybe_span
from ..obs.runtime import build_digest
from ..rdma.verbs import NodeUnavailable
from ..sim.faults import DropWindow, FaultPlan, NodeOutage, compile_wall
from .client import drive
from .cluster import RealCluster
from .loadgen import run_load

#: Retry knobs the chaos loadgen overlays on the cluster config: wall-clock
#: backoff (the sim defaults are microsecond-scale) with enough budget that
#: a Set rides through a ~250 ms outage window or a kill/restart gap via
#: bounded retries instead of erroring (worst-case backoff sum ~0.8 s).
CHAOS_CLIENT_CONFIG = {
    "fault_retries": 16,
    "retry_backoff_us": 2_000.0,
    "retry_backoff_max_us": 60_000.0,
}

#: Per-verb timeout under chaos.  Loopback verbs complete in micro- to
#: milliseconds, so a timeout this much larger implies a gate drop — which
#: is what keeps "timed out" equivalent to the sim's "never executed".
CHAOS_TIMEOUT_S = 0.25

#: The canonical drop+outage plan, authored in *sim* microseconds against
#: a ~30 ms simulated run; :func:`compile_wall` at :data:`DEFAULT_TIME_SCALE`
#: turns it into a ~1.3 s wall-clock schedule.  One JSON, two substrates.
CANNED_PLAN = FaultPlan(
    drops=(DropWindow(2_000.0, 20_000.0, prob=0.04),),
    outages=(NodeOutage(1, 8_000.0, 13_000.0),),
    seed=902,
)

DEFAULT_TIME_SCALE = 50.0


# -- post-run reconciliation and the real-heap sweep -----------------------


async def reconcile_grants(cluster: RealCluster) -> List[Tuple[int, int, int]]:
    """Adopt grants the servers hold but no client recorded.

    The same diff step 2 of crash recovery performs
    (:meth:`repro.core.cache.DittoCluster.recover_client`): per client and
    node, ``list_segments(owner)`` against the client's own grant records.
    A surplus server-side grant is an alloc RPC that executed but whose
    response was lost to a drop, reset, or SIGKILL; the client re-ran the
    op and got a different segment.  Recording the orphan as *spare* puts
    it back under the accounting sweep.  Returns the adopted
    ``(client_id, addr, size)`` triples.
    """
    adopted: List[Tuple[int, int, int]] = []
    for client in cluster.clients:
        for node in cluster.nodes:
            allocator = client.alloc.allocator_for_node(node)
            known = set(allocator.segments)
            granted = await drive(
                client.ep.rpc(node, "list_segments", client.client_id)
            )
            for addr, size in granted:
                if (addr, size) not in known:
                    allocator.record_segment(addr, size)
                    adopted.append((client.client_id, addr, size))
    return adopted


async def repair_sweep(cluster: RealCluster, passes: int = 2) -> int:
    """Scrub the table for half-installed slots (lost metadata posts).

    Two full scans separated by the repair lease: the first pass marks
    suspects, the second reclaims those whose atomic word never moved.
    Returns the number of repaired slots (counter delta).
    """
    scrubber = cluster.clients[0]
    before = cluster.counters.get("lease_repair")
    lease_s = scrubber.config.repair_lease_us / 1e6
    for index in range(passes):
        await drive(scrubber.repair_scan())
        if index + 1 < passes:
            await asyncio.sleep(2.0 * lease_s + 0.005)
    return cluster.counters.get("lease_repair") - before


async def sweep_real(cluster: RealCluster) -> Dict[str, int]:
    """Run the memory-accounting sweep over the live cluster's real heaps.

    Grant logs come from each node's ``granted_segments`` RPC (journal-
    backed, so they are crash-consistent); hash-table slots are read
    directly out of node 0's shared-memory segment.  The cluster must be
    quiesced: loadgen finished, background posts drained, grants
    reconciled.  Raises
    :class:`~repro.core.invariants.InvariantViolation` on any lost grant,
    leaked block, or budget drift.
    """
    ep = cluster.clients[0].ep
    granted: List[Tuple[int, int]] = []
    for node in cluster.nodes:
        by_owner = await drive(ep.rpc(node, "granted_segments", None))
        for segs in by_owner.values():
            granted.extend(segs)
    node0 = cluster.node
    attached_here = node0._seg is None
    node0.attach()
    try:
        return invariants.sweep(cluster, granted, node0.read_direct)
    finally:
        if attached_here:
            node0.detach()


# -- the chaos harness ------------------------------------------------------


async def _arm_gates(cluster: RealCluster, wall_plan: FaultPlan,
                     t0: float) -> None:
    ep = cluster.clients[0].ep
    payload = (wall_plan.to_dict(), t0)
    for node in cluster.nodes:
        await drive(ep.rpc(node, "__chaos_load__", payload))


async def _disarm_gates(cluster: RealCluster) -> None:
    """Stop every node's gate; the sweep must not run against an armed one.

    A node restarted moments ago may still be marked down, and the breaker
    refuses all but one probe per interval — so a refused stop is retried
    until the node answers, for at most :data:`CHAOS_TIMEOUT_S` per node.
    """
    ep = cluster.clients[0].ep
    for node in cluster.nodes:
        give_up = time.monotonic() + CHAOS_TIMEOUT_S
        while True:
            try:
                await drive(ep.rpc(node, "__chaos_stop__", None))
                break
            except NodeUnavailable:
                if time.monotonic() >= give_up:
                    raise
                await asyncio.sleep(0.01)


async def run_chaos(
    harness,
    plan: FaultPlan = CANNED_PLAN,
    *,
    time_scale: float = DEFAULT_TIME_SCALE,
    clients: int = 16,
    ops: int = 5000,
    n_keys: int = 2000,
    read_ratio: float = 0.95,
    value_bytes: int = 232,
    preload: int = 500,
    seed: int = 7,
    kill_node_id: Optional[int] = None,
    kill_at_s: float = 0.8,
    restart_after_s: float = 0.3,
    timeout_s: float = CHAOS_TIMEOUT_S,
) -> Dict:
    """Drive the loadgen under ``plan`` against ``harness``'s live cluster.

    The full chaos protocol: compile the sim-time plan to wall-clock, arm
    every node's gate at a common epoch origin right as the measured
    window opens, optionally SIGKILL ``kill_node_id`` mid-load and
    restart it against the surviving heap, then quiesce, reconcile,
    repair, and sweep.  Returns the loadgen report extended with a
    ``chaos`` section; raises on an invariant violation.
    """
    wall_plan, dropped = compile_wall(plan, time_scale)
    if dropped:
        raise ValueError(
            f"plan kinds {dropped} are sim-only and cannot run on the real "
            "substrate (DESIGN §3.8)"
        )
    if kill_node_id == 0:
        raise ValueError(
            "node 0 hosts the in-process membership/weights handlers; "
            "kill a data node instead"
        )

    descriptor = dict(harness.descriptor())
    descriptor["config"] = {
        **descriptor.get("config", {}), **CHAOS_CLIENT_CONFIG,
    }
    cluster = RealCluster(descriptor, timeout_s=timeout_s)
    #: Arms the clients' lease-repair path, exactly as a sim cluster with
    #: an injector attached would.
    cluster.fault_injector = wall_plan

    tasks: List[asyncio.Task] = []
    killed: Dict[str, float] = {}

    async def _watchdog() -> None:
        # Reap dead children and surface NodeUnavailable immediately via
        # the health view, instead of every op burning its full timeout.
        while True:
            for node_id in harness.reap():
                cluster.health.report_down(node_id)
            await asyncio.sleep(0.05)

    async def _killer(t0: float) -> None:
        await asyncio.sleep(kill_at_s)
        harness.kill_node(kill_node_id)
        cluster.health.report_down(kill_node_id)
        killed["killed_at_s"] = time.time() - t0
        await asyncio.sleep(restart_after_s)
        await asyncio.to_thread(
            harness.restart_node, kill_node_id,
            chaos=(wall_plan.to_dict(), t0),
        )
        killed["restarted_at_s"] = time.time() - t0

    obs = obs_current()

    async def _on_start() -> None:
        t0 = time.time()
        killed["_t0_epoch"] = t0
        await _arm_gates(cluster, wall_plan, t0)
        if obs is not None:
            # Overlay the plan's fault windows on the launcher's trace
            # (each armed server shard overlays its own copy too) and
            # mark the common arm origin.
            base_ts = obs.ts_from_epoch(t0)
            obs.tracer.fault_windows(wall_plan.to_dict(), base_ts)
            obs.tracer.instant_at(
                "chaos.armed", "chaos", base_ts, tid=0,
                args={"time_scale": time_scale},
            )
        tasks.append(asyncio.create_task(_watchdog(), name="chaos-watchdog"))
        if kill_node_id is not None:
            tasks.append(
                asyncio.create_task(_killer(t0), name="chaos-killer")
            )

    try:
        report = await run_load(
            descriptor,
            clients=clients,
            ops=ops,
            n_keys=n_keys,
            read_ratio=read_ratio,
            value_bytes=value_bytes,
            preload=preload,
            seed=seed,
            timeout_s=timeout_s,
            cluster=cluster,
            on_start=_on_start,
        )
        # The killer must have finished (kill + restart) before quiesce.
        for task in tasks:
            if task.get_name() == "chaos-killer":
                await task
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        tasks.clear()

        # Collect per-node gate verdict tallies before disarm drops the
        # gates (the servers also fold them for later __stats__ polls).
        verdicts = await _collect_verdicts(cluster)
        await _disarm_gates(cluster)
        with maybe_span("chaos.quiesce", "chaos"):
            await cluster.engine.drain_background()
            with maybe_span("chaos.reconcile_grants", "chaos"):
                adopted = await reconcile_grants(cluster)
            with maybe_span("chaos.repair_sweep", "chaos"):
                repaired = await repair_sweep(cluster)
            await cluster.engine.drain_background()
            with maybe_span("chaos.invariant_sweep", "chaos"):
                summary = await sweep_real(cluster)
    finally:
        for task in tasks:
            task.cancel()
        await cluster.aclose()

    killed.pop("_t0_epoch", None)
    report["chaos"] = {
        "plan": plan.to_dict(),
        "time_scale": time_scale,
        "verdicts": verdicts,
        "adopted_grants": len(adopted),
        "repaired_slots": repaired,
        "sweep": summary,
        **killed,
    }
    report["digest"] = build_digest(report)
    return report


async def _collect_verdicts(cluster: RealCluster) -> Dict[str, int]:
    """Sum every node's chaos-gate fate tally via the ``__stats__`` RPC."""
    ep = cluster.clients[0].ep
    totals: Dict[str, int] = {}
    for node in cluster.nodes:
        try:
            stats = await drive(ep.rpc(node, "__stats__", None))
        except Exception:  # noqa: BLE001 — verdicts are best-effort info
            continue
        for kind, count in (stats.get("chaos_verdicts") or {}).items():
            if count:
                totals[kind] = totals.get(kind, 0) + count
    return totals


__all__ = [
    "CANNED_PLAN",
    "CHAOS_CLIENT_CONFIG",
    "CHAOS_TIMEOUT_S",
    "DEFAULT_TIME_SCALE",
    "reconcile_grants",
    "repair_sweep",
    "run_chaos",
    "sweep_real",
]
