"""Integration: the wall-clock observability layer on a live cluster.

Spawns real ``repro.runtime.server`` processes and checks the three
contracts ISSUE 10 pins down:

- **traced runs export mergeable shards** — with ``REPRO_TRACE`` set,
  every process (launcher + each memory node) writes a shard, including
  through the chaos drill's SIGKILL/restart cycle, and the merged trace
  passes the validator with one lane group per process;
- **live introspection** — ``__stats__`` answers on a dark node, and
  ``__stats_arm__`` switches metrics on at runtime without a restart;
- **zero cost when disarmed** — without ``REPRO_TRACE``, neither the
  client endpoint nor the server holds an observability handle, and no
  shard or registry appears anywhere.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.obs import runtime as obs_runtime
from repro.obs.runtime import merge_shards
from repro.obs.trace import validate_trace
from repro.runtime.chaos import run_chaos
from repro.runtime.cluster import RealCluster
from repro.runtime.harness import RealClusterHarness, control_rpc
from repro.runtime.loadgen import run_load
from repro.sim.faults import DropWindow, FaultPlan


@pytest.fixture(autouse=True)
def _isolated_obs(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_EPOCH", raising=False)
    obs_runtime._reset()
    yield
    obs_runtime._reset()


def _mini_harness(seed=11):
    return RealClusterHarness(
        capacity_objects=1024, num_clients=4, num_memory_nodes=2, seed=seed
    )


def test_traced_load_merges_into_valid_trace(tmp_path, monkeypatch):
    trace_dir = str(tmp_path / "rt")
    monkeypatch.setenv("REPRO_TRACE", trace_dir)
    obs_runtime.init("launcher")  # launcher publishes the epoch origin

    harness = _mini_harness()
    try:
        descriptor = harness.launch()
        report = asyncio.run(run_load(
            descriptor, clients=4, ops=400, n_keys=300, preload=50, seed=11
        ))
    finally:
        harness.shutdown()
    obs_runtime.current().flush()
    assert report["failed_ops"] == 0

    shards = sorted(os.listdir(trace_dir))
    # launcher + one per memory node, all sharing the launcher's epoch
    assert len(shards) == 3
    doc, info = merge_shards(trace_dir)
    assert [s["role"] for s in info["shards"]] == ["launcher", "mn0", "mn1"]
    assert info["skipped"] == []
    assert validate_trace(doc) == []
    lanes = {e["pid"] for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert len(lanes) >= 3
    names = {
        e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"
    }
    # client ops from the launcher, verb service spans from the nodes,
    # the load phase marker, and the harness control spans
    assert {"op.get", "op.set", "read", "write", "load",
            "harness.launch"} <= names

    # The armed counterpart of the dark-path check: the loadgen's clients
    # record the sim's op.latency metric into the launcher's shard.
    (launcher,) = [n for n in shards if n.startswith("shard-launcher-")]
    with open(os.path.join(trace_dir, launcher), encoding="utf-8") as fh:
        metrics = json.load(fh)["metrics"]
    latency = {
        row["labels"]["verb"]: row["count"] for row in metrics["histograms"]
        if row["name"] == "op.latency"
        and row["labels"].get("component") == "client"
    }
    assert latency["get"] > 0 and latency["set"] > 0


def test_traced_chaos_drill_records_faults_and_kill_cycle(
    tmp_path, monkeypatch
):
    trace_dir = str(tmp_path / "rt")
    monkeypatch.setenv("REPRO_TRACE", trace_dir)
    obs_runtime.init("launcher")

    plan = FaultPlan(
        drops=(DropWindow(1_000.0, 6_000.0, prob=0.05),), seed=31
    )
    harness = _mini_harness()
    try:
        harness.launch()
        report = asyncio.run(run_chaos(
            harness, plan, time_scale=50.0, clients=4, ops=600,
            n_keys=300, preload=100, seed=11, kill_node_id=1,
        ))
    finally:
        harness.shutdown()
    obs_runtime.current().flush()

    # The digest rode along on the report (satellite S1).
    digest = report["digest"]
    assert digest["ops"] == report["ops"]
    assert digest["chaos"]["verdicts"]["ok"] > 0
    assert "sweep" in digest["chaos"]

    doc, info = merge_shards(trace_dir)
    assert validate_trace(doc) == []
    # SIGKILL writes nothing by design (only the atomic-rename commit
    # point counts); the restarted mn1 contributes a fresh shard, so the
    # drill still yields one lane per live process.
    assert [s["role"] for s in info["shards"]] == ["launcher", "mn0", "mn1"]
    restarted = [s for s in info["shards"] if s["role"] == "mn1"]
    assert restarted[0]["events"] > 0
    names = {e["name"] for e in doc["traceEvents"]}
    assert {"harness.kill", "harness.restart_adopt", "fault.drop",
            "chaos.quiesce", "chaos.reconcile_grants"} <= names


def test_stats_rpc_and_runtime_arming():
    harness = _mini_harness()
    try:
        descriptor = harness.launch()
        node = descriptor["nodes"][0]

        stats = control_rpc(node["host"], node["port"], "__stats__", None)
        assert stats["role"] == "mn0"
        assert stats["obs_armed"] is False and stats["metrics"] is None
        assert stats["uptime_s"] >= 0.0

        control_rpc(node["host"], node["port"], "__stats_arm__", None)
        asyncio.run(run_load(
            descriptor, clients=2, ops=200, n_keys=100, preload=20, seed=3
        ))
        stats = control_rpc(node["host"], node["port"], "__stats__", None)
        assert stats["obs_armed"] is True
        assert stats["ops_served"] > 0
        verb_rows = [
            row for row in stats["metrics"]["counters"]
            if row["name"] == "verbs"
        ]
        assert sum(row["value"] for row in verb_rows) > 0
        hist_rows = {
            row["labels"]["verb"]: row
            for row in stats["metrics"]["histograms"]
            if row["name"] == "verb.service_us" and row["count"] > 0
        }
        # A Set's chained WRITE and CAS are served, and named, as one.
        assert {"read", "write", "write_cas"} <= set(hist_rows)
        assert all(
            r["mean"] > 0 and r["max"] > 0 for r in hist_rows.values()
        )
        # quantile ordering holds where the streaming tails have data
        assert all(
            r["p99"] >= r["p50"]
            for r in hist_rows.values() if r["count"] >= 20
        )
    finally:
        harness.shutdown()
    assert harness.leak_report()["clean"]


def test_disarmed_runs_hold_no_obs_state(tmp_path):
    """The zero-cost conformance check (satellite S6).

    Without REPRO_TRACE nothing may allocate observability state: the
    cluster holds no hub or registry, its clients bind no ``op.latency``
    histogram (so a Get/Set reads no clock for one), the endpoint handle
    is None, the servers report dark, and no shard file appears anywhere
    the run touches.
    """
    assert "REPRO_TRACE" not in os.environ
    harness = _mini_harness()
    try:
        descriptor = harness.launch()
        cluster = RealCluster(descriptor)
        assert cluster.obs is None
        (client,) = cluster.add_clients(1)
        assert client._hist_get is None and client._hist_set is None
        assert client.ep._obs_proc is None
        assert client.ep._obs_hist == {}
        asyncio.run(cluster.aclose())

        report = asyncio.run(run_load(
            descriptor, clients=2, ops=200, n_keys=100, preload=20, seed=3
        ))
        assert report["failed_ops"] == 0

        for node in descriptor["nodes"]:
            stats = control_rpc(node["host"], node["port"], "__stats__",
                                None)
            assert stats["obs_armed"] is False
            assert stats["metrics"] is None
    finally:
        harness.shutdown()
    assert obs_runtime.current() is None
    assert not list(tmp_path.iterdir())


def test_server_flushes_shard_on_sigterm_drain(tmp_path, monkeypatch):
    """Satellite S2: a SIGTERM'd server must not lose its shard."""
    trace_dir = str(tmp_path / "rt")
    monkeypatch.setenv("REPRO_TRACE", trace_dir)
    obs_runtime.init("launcher")

    harness = _mini_harness()
    try:
        descriptor = harness.launch()
        asyncio.run(run_load(
            descriptor, clients=2, ops=200, n_keys=100, preload=20, seed=3
        ))
    finally:
        harness.shutdown()  # SIGTERM-driven drain path

    shards = [
        name for name in os.listdir(trace_dir) if name.startswith("shard-mn")
    ]
    assert len(shards) == 2
    for name in shards:
        doc = json.load(open(os.path.join(trace_dir, name)))
        verb_spans = [
            e for e in doc["traceEvents"]
            if e.get("ph") == "X" and e.get("cat") == "verb"
        ]
        assert verb_spans, f"{name} flushed without verb spans"
