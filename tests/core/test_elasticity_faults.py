"""Acceptance sweep: a node drain survives faults injected at every phase.

The matrix the issue demands: {client crash, controller-RPC failure, MN
outage} x {copy phase, handoff phase}, each injected at the exact moment the
drain enters the phase (the ``on_phase`` hook fires synchronously).  After
the drain and a quiesce, the system must be fully recovered: the migration
completed, the memory-accounting sweep holds (no block leaked or
double-owned across the epoch changes), and every key is either correct or
a clean miss.
"""

import pytest

from repro.bench.runner import Feed, Harness, make_value, pack_key, preload
from repro.bench.systems import build_ditto
from repro.core import invariant_sweep
from repro.sim.faults import ClientCrash, DropWindow, FaultPlan, RpcFailure, NodeOutage
from repro.workloads import make_ycsb

N_KEYS = 600
N_CLIENTS = 4
VALUE_SIZE = 232
SEED = 21

FAULTS = ("crash", "rpc", "outage")
PHASES = ("copy", "handoff")


def _drain_under_fault(fault: str, phase: str, seed: int = SEED):
    """Run a full drain with traffic and one fault armed at ``phase``."""
    cluster = build_ditto(
        2 * N_KEYS, N_CLIENTS, seed=seed, num_memory_nodes=3,
        faults=FaultPlan(),
    )
    preload(cluster.engine, cluster.clients, range(N_KEYS), value_size=VALUE_SIZE)
    harness = Harness(
        cluster.engine, value_size=VALUE_SIZE, miss_penalty_us=200.0,
        tolerate_failures=True,
    )
    feeds = [
        Feed.from_requests(
            make_ycsb("A", n_keys=N_KEYS, seed=seed + i, client_id=i)
            .requests(30_000)
        )
        for i in range(N_CLIENTS)
    ]
    harness.launch_all(cluster.clients, feeds)
    harness.warm(15_000.0)

    def on_phase(name):
        if name != phase:
            return
        now = cluster.engine.now
        if fault == "crash":
            harness.schedule_crashes(
                cluster, (ClientCrash(client_index=1, at_us=5.0),),
                offset_us=now,
            )
        elif fault == "rpc":
            cluster.fault_injector.load(
                FaultPlan(
                    rpc_failures=(RpcFailure(0.0, 2_500.0, prob=0.6),),
                    seed=seed,
                ),
                offset_us=now,
            )
        else:  # MN outage on a surviving node holding data and grants
            cluster.fault_injector.load(
                FaultPlan(outages=(NodeOutage(1, 0.0, 2_000.0),), seed=seed),
                offset_us=now,
            )

    proc = cluster.remove_memory_node(2, on_phase=on_phase)
    while not proc.finished and cluster.engine.now < 20_000_000.0:
        harness.measure(20_000.0)
    harness.stop_all()
    cluster.engine.run()  # drain drivers, recoveries, async posts

    # Lease repair: scrub half-installed slots a crash may have abandoned.
    survivor = next(c for c in cluster.clients if not c.dead)
    cluster.engine.run_process(cluster.repair_leases(survivor))
    cluster.engine.run()
    return cluster, harness, proc


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("fault", FAULTS)
def test_drain_survives_fault(fault, phase):
    cluster, harness, proc = _drain_under_fault(fault, phase)
    assert proc.finished, "the drain wedged"
    record = cluster.migrations[-1]
    assert record.phase == "done"
    assert record.migrated_objects > 0
    assert [n.node_id for n in cluster.nodes] == [0, 1]

    if fault == "crash":
        counters = cluster.counters.as_dict()
        assert counters["client_crash"] == 1
        assert counters["crash_recovery"] == 1

    # No block leaked or double-owned across the epoch changes.
    report = invariant_sweep(cluster)
    assert report["live_bytes"] == cluster.budget.used_bytes

    # Every key is correct or a clean miss: the preload/refill value for a
    # key is deterministic, so any hit must return exactly it.
    value = make_value(VALUE_SIZE)
    survivor = next(c for c in cluster.clients if not c.dead)
    run = cluster.engine.run_process
    hits = 0
    for key_id in range(N_KEYS):
        got = run(survivor.get(pack_key(key_id)))
        if got is not None:
            assert got == value
            hits += 1
    assert hits > 0


def test_drain_under_faults_is_deterministic():
    def fingerprint():
        cluster, harness, _proc = _drain_under_fault("rpc", "copy")
        return (
            dict(cluster.counters.as_dict()),
            cluster.engine.now,
            cluster.hits,
            cluster.misses,
            harness.failed_ops,
            cluster.migrations[-1].as_dict(),
        )

    assert fingerprint() == fingerprint()


def test_drain_survives_outage_of_the_draining_node_itself():
    """The migrator's READs of the source node ride out its outage window."""
    cluster, harness, proc = _drain_under_fault("outage", "copy")
    # Re-run with the outage aimed at the draining node instead.
    cluster = build_ditto(
        2 * N_KEYS, N_CLIENTS, seed=SEED, num_memory_nodes=3,
        faults=FaultPlan(),
    )
    preload(cluster.engine, cluster.clients, range(N_KEYS), value_size=VALUE_SIZE)
    harness = Harness(
        cluster.engine, value_size=VALUE_SIZE, miss_penalty_us=200.0,
        tolerate_failures=True,
    )
    feeds = [
        Feed.from_requests(
            make_ycsb("B", n_keys=N_KEYS, seed=SEED + i, client_id=i)
            .requests(30_000)
        )
        for i in range(N_CLIENTS)
    ]
    harness.launch_all(cluster.clients, feeds)
    harness.warm(15_000.0)

    def on_phase(name):
        if name == "copy":
            cluster.fault_injector.load(
                FaultPlan(outages=(NodeOutage(2, 0.0, 2_000.0),), seed=SEED),
                offset_us=cluster.engine.now,
            )

    proc = cluster.remove_memory_node(2, on_phase=on_phase)
    while not proc.finished and cluster.engine.now < 20_000_000.0:
        harness.measure(20_000.0)
    harness.stop_all()
    cluster.engine.run()
    assert proc.finished
    assert cluster.migrations[-1].phase == "done"
    assert cluster.counters.as_dict().get("fault_retry", 0) > 0
    invariant_sweep(cluster)
