"""Cross-tier integration: the byte-level DM cache and the fast hit-rate
simulator must agree, and the systems must order as the paper claims."""

import numpy as np
import pytest

from repro.bench import Feed, Harness, pack_key, preload
from repro.bench.systems import build, build_ditto, run_ycsb_workload
from repro.cachesim import SampledAdaptiveCache
from repro.core import DittoCluster, DittoConfig
from repro.workloads import zipfian_trace


class TestTierAgreement:
    """Same trace, same capacity: DM-tier and cachesim hit rates must land
    close (they share policy code but differ in sampling randomness and
    byte-level effects)."""

    @pytest.mark.parametrize("policy", ["lru", "lfu", "fifo"])
    def test_single_policy_hit_rates_agree(self, policy):
        n_keys, capacity, n_req = 600, 128, 6_000
        trace = zipfian_trace(n_req, n_keys, theta=0.9, seed=3)

        sim = SampledAdaptiveCache(capacity, policies=(policy,), seed=5)
        for key in trace:
            sim.access(int(key))

        # use_fc=False: the FC cache intentionally lags remote frequency
        # counters, which the exact-frequency simulator does not model.
        cluster = DittoCluster(
            capacity_objects=capacity,
            object_bytes=40,
            num_clients=1,
            config=DittoConfig(policies=(policy,), use_fc=False),
            seed=5,
        )
        client = cluster.clients[0]
        run = cluster.engine.run_process
        value = b"v" * 20
        for key in trace:
            if run(client.get(b"%d" % key)) is None:
                run(client.set(b"%d" % key, value))
        dm_rate = cluster.hit_rate()
        assert dm_rate == pytest.approx(sim.hit_rate(), abs=0.08), (
            f"{policy}: DM {dm_rate:.3f} vs sim {sim.hit_rate():.3f}"
        )

    def test_adaptive_hit_rates_agree(self):
        n_keys, capacity, n_req = 600, 128, 6_000
        trace = zipfian_trace(n_req, n_keys, theta=0.9, seed=4)
        sim = SampledAdaptiveCache(capacity, policies=("lru", "lfu"), seed=5)
        for key in trace:
            sim.access(int(key))
        cluster = DittoCluster(
            capacity_objects=capacity, object_bytes=40, num_clients=1, seed=5,
        )
        client = cluster.clients[0]
        run = cluster.engine.run_process
        for key in trace:
            if run(client.get(b"%d" % key)) is None:
                run(client.set(b"%d" % key, b"v" * 20))
        assert cluster.hit_rate() == pytest.approx(sim.hit_rate(), abs=0.08)


    def test_fc_cache_costs_bounded_lfu_precision(self):
        """With the FC cache on, LFU decisions run on lagged counters; the
        paper's claim is that the threshold-10 lag costs little hit rate."""
        n_keys, capacity, n_req = 600, 128, 6_000
        trace = zipfian_trace(n_req, n_keys, theta=0.9, seed=3)
        sim = SampledAdaptiveCache(capacity, policies=("lfu",), seed=5)
        for key in trace:
            sim.access(int(key))
        cluster = DittoCluster(
            capacity_objects=capacity, object_bytes=40, num_clients=1,
            config=DittoConfig(policies=("lfu",)), seed=5,
        )
        client = cluster.clients[0]
        run = cluster.engine.run_process
        for key in trace:
            if run(client.get(b"%d" % key)) is None:
                run(client.set(b"%d" % key, b"v" * 20))
        assert cluster.hit_rate() > sim.hit_rate() - 0.15


class TestSystemOrdering:
    """The paper's qualitative throughput ordering at moderate scale."""

    def test_ditto_beats_baselines_on_ycsb_c(self):
        n_keys, clients = 2_000, 32
        results = {}
        for name, cluster in (
            ("ditto", build("ditto", 2 * n_keys, clients)),
            ("shard-lru", build("shard-lru", 4 * n_keys, clients)),
            ("cm-lru", build("cm-lru", 2 * n_keys, clients)),
        ):
            measured = run_ycsb_workload(
                cluster, cluster.clients, "C", n_keys, window_us=5_000.0
            )
            results[name] = measured.throughput_mops
        assert results["ditto"] > results["cm-lru"]
        assert results["ditto"] > 2 * results["shard-lru"]

    def test_nic_saturation_flattens_scaling(self):
        n_keys = 2_000

        def tput(clients):
            cluster = build_ditto(2 * n_keys, clients)
            return run_ycsb_workload(
                cluster, cluster.clients, "C", n_keys, window_us=5_000.0
            ).throughput_mops

        low, mid, high = tput(4), tput(64), tput(128)
        assert mid > 3 * low  # scales while NIC has headroom
        assert high < mid * 1.3  # saturates at the NIC


class TestTimedAdaptivity:
    def test_weights_follow_workload_in_timed_mode(self):
        """Concurrent timed clients on an LFU-friendly mix shift global
        weights away from uniform."""
        n_keys, capacity = 2_000, 200
        cluster = build_ditto(capacity, 8, object_bytes=64)
        trace = zipfian_trace(40_000, n_keys, theta=1.1, seed=9)
        harness = Harness(cluster.engine, value_size=32, miss_penalty_us=50.0)
        shards = np.array_split(trace, 8)
        harness.launch_all(cluster.clients, [Feed.reads(s) for s in shards])
        harness.warm(30_000.0)
        harness.measure(100_000.0)
        regrets = sum(c.regrets for c in cluster.clients)
        assert regrets > 0
        weights = cluster.global_weights.weights
        assert weights != pytest.approx([0.5, 0.5], abs=1e-6)
