"""Wall-clock chaos layer: gates, journals, kill/restart, and the drill.

Unit tests cover the pure pieces — sim-to-wall plan compilation, the
durable grant journal, and the :class:`~repro.runtime.client.NodeHealth`
circuit breaker — against plain buffers and fake clocks (the per-node
fault gate is the sim's ``FaultInjector``; its cases, on both clocks, are
in ``tests/sim/test_faults.py``).  The integration tests
spawn real ``repro.runtime.server`` processes: SIGKILL mid-run, restart
against the surviving shared-memory heap, fail-fast via the reaper, and
a scaled-down end-to-end chaos drill finishing with the invariant sweep.
"""

from __future__ import annotations

import asyncio
import struct
import time

import pytest

from repro.core import invariants
from repro.core.adaptive import GlobalWeights
from repro.core.client import CacheOperationError
from repro.rdma.verbs import NodeUnavailable
from repro.runtime.chaos import run_chaos
from repro.runtime.client import NodeHealth, drive
from repro.runtime.cluster import RealCluster
from repro.runtime.harness import RealClusterHarness
from repro.runtime.loadgen import node_stats, run_load, wire_key
from repro.runtime.journal import (
    DurableSegmentState,
    GrantJournal,
    journal_bytes,
)
from repro.runtime.server import shm_name
from repro.sim.faults import (
    ClientCrash,
    DropWindow,
    FaultPlan,
    LatencySpike,
    NodeOutage,
    RpcFailure,
    compile_wall,
)


# -- plan compilation -------------------------------------------------------


def test_compile_wall_scales_every_time_quantity():
    plan = FaultPlan(
        drops=(DropWindow(10.0, 20.0, prob=0.5, verbs=("read",)),),
        spikes=(LatencySpike(5.0, 15.0, extra_us=7.0),),
        outages=(NodeOutage(1, 30.0, 40.0),),
        rpc_failures=(RpcFailure(2.0, 4.0, prob=0.25),),
        seed=3,
    )
    wall, dropped = compile_wall(plan, time_scale=50.0)
    assert dropped == ()
    assert (wall.drops[0].start_us, wall.drops[0].end_us) == (500.0, 1000.0)
    # Probabilities, scoping, and the seed are not time quantities.
    assert wall.drops[0].prob == 0.5
    assert wall.drops[0].verbs == ("read",)
    assert wall.seed == 3
    # Spike extra_us *is* a time quantity: it scales with the windows.
    assert (wall.spikes[0].start_us, wall.spikes[0].end_us) == (250.0, 750.0)
    assert wall.spikes[0].extra_us == 350.0
    assert (wall.outages[0].start_us, wall.outages[0].end_us) == (
        1500.0, 2000.0,
    )
    assert (wall.rpc_failures[0].start_us, wall.rpc_failures[0].end_us) == (
        100.0, 200.0,
    )


def test_compile_wall_reports_sim_only_kinds_and_rejects_bad_scale():
    plan = FaultPlan(client_crashes=(ClientCrash(0, 100.0),))
    _wall, dropped = compile_wall(plan, time_scale=10.0)
    assert dropped == ("client_crashes",)
    with pytest.raises(ValueError):
        compile_wall(plan, time_scale=0.0)


# -- the durable grant journal ----------------------------------------------


def test_journal_adopt_rebuilds_grants_frees_and_tokens():
    buf = memoryview(bytearray(journal_bytes(64)))
    state = DurableSegmentState(0, 4096, 1 << 20, GrantJournal(buf, 64))
    a = state.alloc(8192, owner=1, token=11)
    b = state.alloc(4096, owner=2, token=22)
    c = state.alloc(4096, owner=1)
    state.free(b, 4096)

    adopted = DurableSegmentState.adopt(0, 4096, 1 << 20, buf)
    assert sorted(adopted.grants[1]) == sorted([(a, 8192), (c, 4096)])
    assert 2 not in adopted.grants or not adopted.grants[2]
    assert adopted.free_segments == {4096: [b]}
    assert adopted.next_free == state.next_free
    # Only the *live* grant's token survives as dedup state.
    assert adopted.token_grants == {11: a}
    # A resent alloc across the crash gets the original grant back.
    assert adopted.alloc(8192, owner=1, token=11) == a
    # A fresh alloc recycles the freed range rather than bumping.
    assert adopted.alloc(4096, owner=3) == b


def test_journal_free_reuse_rewrites_owner_and_token_in_place():
    buf = memoryview(bytearray(journal_bytes(8)))
    state = DurableSegmentState(0, 0, 1 << 16, GrantJournal(buf, 8))
    addr = state.alloc(4096, owner=1, token=5)
    state.free(addr, 4096)
    again = state.alloc(4096, owner=9, token=6)
    assert again == addr
    assert state.journal.count == 1  # in-place rewrite, no new entry
    adopted = DurableSegmentState.adopt(0, 0, 1 << 16, buf)
    assert adopted.grants == {9: [(addr, 4096)]}
    assert adopted.token_grants == {6: addr}


def test_journal_attach_ignores_torn_entries():
    buf = memoryview(bytearray(journal_bytes(8)))
    state = DurableSegmentState(0, 0, 1 << 16, GrantJournal(buf, 8))
    addr = state.alloc(4096, owner=3)
    # Simulate a SIGKILL between an entry store and its size word: the
    # published count covers an entry whose size is still zero, which
    # rebuild must skip (size is the validity gate).
    buf[16:24] = struct.pack("<Q", 2)
    adopted = DurableSegmentState.adopt(0, 0, 1 << 16, buf)
    assert list(adopted.journal.entries()) == [(addr, 4096, 3, 0)]
    assert adopted.grants == {3: [(addr, 4096)]}


def test_journal_attach_rejects_foreign_bytes():
    buf = memoryview(bytearray(journal_bytes(8)))
    with pytest.raises(ValueError):
        GrantJournal.attach(buf)


# -- the health view (fail-fast circuit breaker) ----------------------------


def test_node_health_breaker_probes_and_notifies(monkeypatch):
    monkeypatch.setattr(NodeHealth, "PROBE_INTERVAL_S", 0.05)
    health = NodeHealth()
    transitions = []
    health.add_listener(lambda: transitions.append(health.down_ids()))

    assert not health.is_down(1)
    assert health.allow_probe(1)  # healthy nodes are never gated

    health.report_down(1)
    health.report_down(1)  # idempotent: one transition, one notify
    assert health.is_down(1)
    assert transitions == [frozenset({1})]

    assert health.allow_probe(1)       # first probe is due immediately
    assert not health.allow_probe(1)   # then the interval gates
    time.sleep(0.06)
    assert health.allow_probe(1)

    health.mark_up(1)
    assert not health.is_down(1)
    assert transitions == [frozenset({1}), frozenset()]


# -- integration: kill, adopt, fail fast, drill -----------------------------


def _mini_harness(**kwargs) -> RealClusterHarness:
    defaults = dict(
        capacity_objects=1024, num_clients=4, num_memory_nodes=2, seed=9,
    )
    defaults.update(kwargs)
    return RealClusterHarness(**defaults)


def test_kill_restart_adopt_preserves_acknowledged_writes():
    harness = _mini_harness()
    try:
        descriptor = harness.launch()

        async def scenario():
            cluster = RealCluster(descriptor, timeout_s=5.0)
            try:
                cluster.add_clients(1)
                client = cluster.clients[0]
                values = {
                    b"key-%d" % i: bytes([i % 251]) * 64 for i in range(80)
                }
                for key, value in values.items():
                    await drive(client.set(key, value))

                assert harness.kill_node(1)
                assert harness.reap() == [1]
                harness.restart_node(1)

                # Every acknowledged Set is readable: data came out of the
                # surviving heap, grant state out of the adopted journal.
                for key, value in values.items():
                    assert await drive(client.get(key)) == value
            finally:
                await cluster.aclose()

        asyncio.run(scenario())
    finally:
        harness.shutdown()
    assert harness.leak_report()["clean"]


def test_reaped_node_fails_fast_instead_of_burning_timeouts():
    harness = _mini_harness()
    try:
        descriptor = harness.launch()

        async def scenario():
            # Deliberately generous verb timeout: fail-fast must come from
            # the health view, not from the timeout expiring.
            cluster = RealCluster(descriptor, timeout_s=10.0)
            try:
                cluster.add_clients(1)
                ep = cluster.clients[0].ep
                node1 = next(
                    n for n in cluster.nodes if n.node_id == 1
                )
                assert await drive(ep.read(node1.base, 8)) == bytes(8)

                harness.kill_node(1)
                for node_id in harness.reap():
                    cluster.health.report_down(node_id)

                t0 = time.perf_counter()
                with pytest.raises(NodeUnavailable):
                    await drive(ep.read(node1.base, 8))  # allowed probe
                with pytest.raises(NodeUnavailable, match="marked down"):
                    await drive(ep.read(node1.base, 8))  # gated outright
                assert time.perf_counter() - t0 < 2.0
                # The cluster steered allocation off the dead node.
                striped = cluster.clients[0].alloc
                active = {
                    node.node_id
                    for node, on in zip(striped._nodes, striped._active)
                    if on
                }
                assert 1 not in active
            finally:
                await cluster.aclose()

        asyncio.run(scenario())
    finally:
        harness.shutdown()
    leak = harness.leak_report()
    assert leak["leaked_shm"] == [shm_name(harness.run_id, 1)]
    assert harness.unlink_leaked() == [shm_name(harness.run_id, 1)]
    assert harness.leak_report()["clean"]


def test_chaos_drill_end_to_end_sweeps_clean():
    plan = FaultPlan(
        drops=(DropWindow(1_000.0, 6_000.0, prob=0.05),),
        seed=31,
    )
    harness = _mini_harness(seed=11)
    try:
        harness.launch()
        report = asyncio.run(run_chaos(
            harness, plan, time_scale=50.0, clients=4, ops=600,
            n_keys=300, preload=100, seed=11,
        ))
    finally:
        harness.shutdown()
    assert report["failed_ops"] == 0
    chaos = report["chaos"]
    assert chaos["plan"] == plan.to_dict()
    sweep = chaos["sweep"]
    assert sweep["granted_bytes"] == (
        sweep["live_bytes"] + sweep["free_bytes"]
        + sweep["bump_bytes"] + sweep["spare_bytes"]
    )
    assert harness.leak_report()["clean"]


def test_the_drill_verdicts_are_one_node_stats_read_summed():
    # The gates count each verdict once, and a disarmed gate's tally stays
    # in its node's __stats__: after the drill, one node_stats read gives
    # each node's batching and verdicts, and their sum is the drill's.
    plan = FaultPlan(drops=(DropWindow(0.0, 6_000.0, prob=0.05),), seed=5)
    harness = _mini_harness(seed=13)
    try:
        descriptor = harness.launch()
        report = asyncio.run(run_chaos(
            harness, plan, time_scale=50.0, clients=4, ops=400,
            n_keys=200, preload=50, seed=13,
        ))
        rows = node_stats(descriptor)
    finally:
        harness.shutdown()
    assert [row["node_id"] for row in rows] == [0, 1]
    for row in rows:
        assert set(row) == {
            "node_id", "frames", "wakeups", "sends", "chaos_verdicts",
        }
        assert 0 < row["wakeups"] <= row["frames"]
        assert 0 < row["sends"] <= row["frames"]
    assert [row["chaos_verdicts"] for row in report["nodes"]] == [
        row["chaos_verdicts"] for row in rows
    ]
    summed = {}
    for row in rows:
        for kind, count in row["chaos_verdicts"].items():
            if count:
                summed[kind] = summed.get(kind, 0) + count
    assert report["chaos"]["verdicts"] == summed
    assert summed["ok"] > 0 and summed["drop"] > 0
    assert harness.leak_report()["clean"]


def test_chaos_refuses_sim_only_plans():
    harness = _mini_harness()  # never launched: the check is up-front
    with pytest.raises(ValueError, match="sim-only"):
        asyncio.run(run_chaos(
            harness, FaultPlan(client_crashes=(ClientCrash(0, 10.0),)),
        ))


def test_kill_node_0_keeps_its_weights_and_every_grant():
    """Write, kill the metadata node, bring it back: node 0's learned
    weights and every acknowledged grant come back from its journal."""
    # Folds every 10 regrets, so a short load moves the weights.
    harness = _mini_harness(capacity_objects=256, weight_update_batch=10)
    try:
        descriptor = harness.launch()

        async def scenario():
            cluster = RealCluster(descriptor, timeout_s=5.0)
            try:
                # A working set 8x the cache: evictions, then regrets.
                report = await run_load(
                    descriptor, clients=4, ops=3000, n_keys=2048,
                    read_ratio=0.5, seed=5, cluster=cluster,
                )
                assert report["evictions"] > 0 and report["regrets"] > 0
                await cluster.engine.drain_background()
                node0 = cluster.node
                ep = cluster.clients[0].ep
                experts = len(cluster.config.policies)

                async def fold():
                    """A fold of zero penalties answers node 0's weights."""
                    return await drive(
                        ep.rpc(node0, "update_weights", [0.0] * experts))

                async def grants():
                    return await drive(ep.rpc(node0, "granted_segments", None))

                weights, granted = await fold(), await grants()
                assert weights != [1.0 / experts] * experts
                expected = GlobalWeights(experts)
                expected.weights = list(weights)

                assert harness.kill_node(0)
                assert harness.reap() == [0]
                harness.restart_node(0)

                assert await fold() == expected.handle_update([0.0] * experts)
                assert await grants() == granted

                failed = 0
                for client in cluster.clients:
                    for key_id in range(50):
                        key = wire_key(key_id)
                        try:
                            if await drive(client.get(key)) is None:
                                await drive(client.set(key, b"v" * 64))
                        except CacheOperationError:
                            failed += 1
                assert failed == 0
                await cluster.engine.drain_background()
                sweep = invariants.sweep(cluster)
                assert sweep["live_objects"] > 0
            finally:
                await cluster.aclose()

        asyncio.run(scenario())
    finally:
        harness.shutdown()
    assert harness.leak_report()["clean"]
