"""Integration: launch a real 2-node cluster, drive it, reap it cleanly.

These tests spawn actual ``repro.runtime.server`` processes with
shared-memory heaps and talk to them over loopback sockets — the
mini-cluster shape the CI smoke job uses, scaled down to stay fast.
"""

import asyncio
import json
import subprocess
import sys
import time

import pytest

from repro.bench.experiments.fig24_ablation import VARIANTS
from repro.core.cache import DittoCluster
from repro.core.config import DittoConfig
from repro.core.geometry import plan_cluster
from repro.runtime.cluster import RealCluster
from repro.runtime.harness import RealClusterHarness
from repro.runtime.loadgen import run_load


def test_cluster_serves_load_and_shuts_down_leak_free():
    harness = RealClusterHarness(
        capacity_objects=1024, num_clients=4, num_memory_nodes=2, seed=5
    )
    try:
        descriptor = harness.launch()
        report = asyncio.run(run_load(
            descriptor, clients=4, ops=400, n_keys=300, preload=50, seed=5
        ))
    finally:
        harness.shutdown()
    assert report["ops"] >= 400
    assert report["failed_ops"] == 0
    assert report["hit_rate"] > 0.3
    assert report["counters"]["rdma_read"] > 0
    assert report["counters"]["rdma_write"] > 0
    leak = harness.leak_report()
    assert leak == {"live_processes": [], "leaked_shm": [], "clean": True}


def test_launch_deadline_holds_against_a_silent_child(monkeypatch):
    """A node that never prints its ready line must not hold the launch
    past ``timeout_s``: the harness gives up, kills the child, raises."""
    harness = RealClusterHarness(
        capacity_objects=512, num_clients=2, num_memory_nodes=1, seed=5
    )

    def silent_spawn(node_id, base, size, extra_argv):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(4)"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        harness.procs.append(proc)
        return proc

    monkeypatch.setattr(harness, "_spawn", silent_spawn)
    started = time.monotonic()
    with pytest.raises(TimeoutError, match="never became ready"):
        harness.launch(timeout_s=0.5)
    assert time.monotonic() - started < 2.0
    assert harness.leak_report()["live_processes"] == []


def test_descriptor_mismatch_is_rejected():
    with RealClusterHarness(
        capacity_objects=512, num_clients=2, num_memory_nodes=1, seed=5
    ) as harness:
        descriptor = harness.descriptor()
        # A client that disagrees on the construction scalars must refuse
        # to join rather than compute wrong addresses.
        skewed = dict(
            descriptor, capacity_objects=1024, max_capacity_objects=2048
        )
        with pytest.raises(ValueError, match="do not match the"):
            RealCluster(skewed)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_every_fig24_variant_builds_a_real_cluster(variant):
    """Offline: each ablation joins a cluster laid out for its config."""
    flags = VARIANTS[variant]
    plan = plan_cluster(512, 256, 2, config=DittoConfig(**flags),
                        num_memory_nodes=2)
    cluster = RealCluster({
        "capacity_objects": 512, "object_bytes": 256, "num_clients": 2,
        "segment_bytes": 256 * 1024, "config": flags,
        "nodes": [
            {"node_id": node_id, "base": base, "size": size,
             "unix": f"@offline-mn{node_id}"}
            for node_id, base, size in plan.node_ranges
        ],
    })
    assert cluster.config == DittoConfig(**flags)
    (client,) = cluster.add_clients(1)
    assert client.config is cluster.config


def test_both_clusters_give_clients_one_contract():
    """Offline: a RealCluster built from a synthetic descriptor and a
    DittoCluster built from the same scalars agree on what a client reads."""
    scalars = dict(capacity_objects=512, object_bytes=256, num_clients=3,
                   segment_bytes=64 * 1024, max_capacity_objects=1024)
    policies = ("lru", "lruk")
    plan = plan_cluster(**scalars, config=DittoConfig(policies=policies),
                        num_memory_nodes=2)
    real = RealCluster(dict(
        scalars, seed=7, config={"policies": list(policies)},
        nodes=[
            {"node_id": node_id, "base": base, "size": size,
             "unix": f"@offline-mn{node_id}"}
            for node_id, base, size in plan.node_ranges
        ],
    ))
    sim = DittoCluster(**scalars, config=DittoConfig(policies=policies),
                       seed=7, num_memory_nodes=2)
    assert sim.ext_fields == ("lruk_ts0", "lruk_ts1")
    for name in ("ext_fields", "history_size", "segment_bytes",
                 "block_bytes_per_object", "max_capacity_objects"):
        assert getattr(real, name) == getattr(sim, name), name
    assert real.layout.num_buckets == sim.layout.num_buckets
    assert real.budget.limit_bytes == sim.budget.limit_bytes

    real.add_clients(3)
    assert [c.client_id for c in real.clients] == [0, 1, 2]
    assert [c.client_id for c in sim.clients] == [0, 1, 2]
    sim_keys = set(sim.stats()) - {"sim_time_us"}
    real_keys = {k for k in real.stats()
                 if k != "wall_time_us" and not k.startswith("link_")}
    assert sim_keys == real_keys
    for hook in ("fence", "fault_injector", "tracer"):
        assert getattr(real, hook) is None, hook


def test_serve_cli_smoke(tmp_path):
    """The CI invocation: embedded load, clean shutdown, leak-checked."""
    descriptor_path = tmp_path / "cluster.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.serve",
            "--memory-nodes", "2", "--capacity", "1024",
            "--clients", "4", "--load", "400", "--preload", "50",
            "--descriptor", str(descriptor_path),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"clean": true' in proc.stdout
    descriptor = json.loads(descriptor_path.read_text())
    assert len(descriptor["nodes"]) == 2
