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

- :func:`run_chaos` — the chaos harness: arms every node's gate over
  the out-of-band control socket (the call
  :meth:`~repro.runtime.harness.RealClusterHarness.restart_node` makes to
  re-arm a restarted node; no control RPC rides a client's link), drives
  the standard load generator under it (optionally SIGKILLing and
  restart-adopting a memory node mid-load), disarms, sums the gates'
  verdict tallies from one :func:`~repro.runtime.loadgen.node_stats`
  read, then quiesces through the
  cluster calls the sim's crash recovery runs too: every client's grants
  are reconciled (``ClusterBase.reconcile_grants``: an orphaned grant
  goes back to its controller), the leases repaired
  (``ClusterBase.repair_leases``), and the memory-accounting sweep
  (:func:`repro.core.invariants.sweep`) checks the *real* shared-memory
  heaps.

What maps 1:1, what is approximated, and the compilation rule are
documented in DESIGN §3.8.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional

from ..core import invariants
from ..obs.observer import current as obs_current
from ..obs.observer import maybe_span
from ..obs.runtime import build_digest
from ..sim.faults import DropWindow, FaultPlan, NodeOutage, compile_wall
from .client import drive
from .cluster import RealCluster
from .loadgen import node_stats, run_load

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


# -- the chaos harness ------------------------------------------------------


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
    restart it against the surviving heap, then disarm, quiesce,
    reconcile, repair, and sweep.  Returns the loadgen report extended
    with a ``chaos`` section, its ``nodes`` rows read after disarm;
    raises on an invariant violation.
    """
    wall_plan, dropped = compile_wall(plan, time_scale)
    if dropped:
        raise ValueError(
            f"plan kinds {dropped} are sim-only and cannot run on the real "
            "substrate (DESIGN §3.8)"
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
        for entry in descriptor["nodes"]:
            harness.raw_rpc(entry, "__chaos_load__", (wall_plan.to_dict(), t0))
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

        # The sweep must not run against an armed gate.  A disarmed gate's
        # tally stays in its node's __stats__.
        for entry in descriptor["nodes"]:
            harness.raw_rpc(entry, "__chaos_stop__", None)
        report["nodes"] = node_stats(descriptor)
        verdicts: Dict[str, int] = {}
        for row in report["nodes"]:
            for kind, count in row["chaos_verdicts"].items():
                if count:
                    verdicts[kind] = verdicts.get(kind, 0) + count
        with maybe_span("chaos.quiesce", "chaos"):
            await cluster.engine.drain_background()
            with maybe_span("chaos.reconcile_grants", "chaos"):
                returned = 0
                for client in cluster.clients:
                    returned += await drive(
                        cluster.reconcile_grants(client, client)
                    )
            with maybe_span("chaos.repair_leases", "chaos"):
                repaired = await drive(
                    cluster.repair_leases(cluster.clients[0])
                )
            await cluster.engine.drain_background()
            with maybe_span("chaos.invariant_sweep", "chaos"):
                summary = invariants.sweep(cluster)
    finally:
        for task in tasks:
            task.cancel()
        await cluster.aclose()

    killed.pop("_t0_epoch", None)
    report["chaos"] = {
        "plan": plan.to_dict(),
        "time_scale": time_scale,
        "verdicts": verdicts,
        "returned_grants": returned,
        "repaired_slots": repaired,
        "sweep": summary,
        **killed,
    }
    report["digest"] = build_digest(report)
    return report


__all__ = [
    "CANNED_PLAN",
    "CHAOS_CLIENT_CONFIG",
    "CHAOS_TIMEOUT_S",
    "DEFAULT_TIME_SCALE",
    "run_chaos",
]
