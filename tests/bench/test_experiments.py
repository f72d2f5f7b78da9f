"""Tiny-scale smoke tests for every per-figure experiment driver.

These don't assert the paper's shapes (each experiment's ``claims`` does,
checked by ``run_all`` at a meaningful scale) — they pin the result schemas,
that each experiment runs end to end, and that ``claims`` reads a full-shaped
result in the jsonified form ``run_all`` hands it.
"""

import pytest

from repro.bench.parallel import jsonify

from repro.bench.experiments import (
    extra_elasticity_churn,
    fig01_redis_elasticity,
    fig02_caching_structure_cost,
    fig03_client_mix,
    fig04_cache_size,
    fig05_concurrency_effects,
    fig13_ditto_elasticity,
    fig14_ycsb_scaling,
    fig15_mn_cpu_cores,
    fig16_real_world_tput,
    fig17_real_world_hitrate,
    fig18_corpus_boxplot,
    fig19_changing_workload,
    fig20_compute_mix,
    fig21_client_scaling,
    fig22_memory_scaling,
    fig23_twelve_algorithms,
    fig24_ablation,
    fig25_fc_cache_size,
    tab02_workload_catalog,
)


def _claims_evaluate(module, result):
    """``claims`` runs on the jsonified result and names each verdict once;
    at this tiny scale the verdicts themselves may fail."""
    verdicts = list(module.claims(jsonify(result)))
    assert verdicts
    for name, ok, values in verdicts:
        assert isinstance(name, str) and isinstance(ok, bool)
        assert isinstance(values, str)
    assert len({name for name, _, _ in verdicts}) == len(verdicts)


def test_fig01_schema():
    result = fig01_redis_elasticity.run(
        nodes=2, scale_to=4, n_keys=400, clients=8,
        phase_us=20_000.0, window_us=10_000.0,
        migration_key_cpu_us=50.0, migration_batch=4,
    )
    assert {"timeline", "migrations"} <= set(result)
    assert len(result["migrations"]) == 2
    phases = {row["phase"] for row in result["timeline"]}
    assert "stable-small" in phases and "stable-large" in phases
    _claims_evaluate(fig01_redis_elasticity, result)


def test_fig02_schema():
    result = fig02_caching_structure_cost.run(
        n_keys=300, client_counts=(1, 4), window_us=2_000.0
    )
    assert set(result["multi_client"]) == {"kvs", "kvc", "kvc-s"}
    assert set(result["single_client"]["kvs"]) == {"mops", "p50_us", "p99_us"}
    _claims_evaluate(fig02_caching_structure_cost, result)


def test_fig03_schema():
    result = fig03_client_mix.run(n_requests=4_000, n_keys=256, total_threads=2)
    assert len(result["rows"]) == 3
    assert {"ditto", "ditto-lru", "ditto-lfu"} <= set(result["rows"][0])
    _claims_evaluate(fig03_client_mix, result)


def test_fig04_schema():
    result = fig04_cache_size.run(n_requests=4_000, n_keys=256, size_fracs=(0.1, 0.4))
    assert len(result["rows"]) == 2
    assert result["footprint"] > 0
    _claims_evaluate(fig04_cache_size, result)


def test_fig05_schema():
    result = fig05_concurrency_effects.run(
        n_traces=4, n_requests=3_000, client_counts=(1, 4)
    )
    assert len(result["cdf"]["lru"]) == 4
    assert 0.0 <= result["best_flip_fraction"] <= 1.0
    assert len(result["example"]) == 2
    _claims_evaluate(fig05_concurrency_effects, result)


def test_fig13_schema():
    result = fig13_ditto_elasticity.run(
        n_keys=400, base_clients=2, extra_clients=2,
        phase_us=8_000.0, window_us=4_000.0,
    )
    phases = {row["phase"] for row in result["timeline"]}
    assert "compute-scaled-up" in phases and "memory-scaled-down" in phases
    # Memory scale-down is a real drain now: node 1 retired, data migrated.
    (migration,) = result["migrations"]
    assert migration["phase"] == "done"
    assert migration["migrated_bytes"] > 0
    assert result["epoch_bumps"] >= 3  # add, draining, retired
    _claims_evaluate(fig13_ditto_elasticity, result)


def test_extra_elasticity_churn_schema():
    result = extra_elasticity_churn.run(
        n_keys=300, num_clients=2, cycles=2,
        phase_us=5_000.0, window_us=2_500.0,
    )
    assert [m["phase"] for m in result["migrations"]] == ["done", "done"]
    assert all(m["migrated_objects"] > 0 for m in result["migrations"])
    assert result["node_ids"] == [0, 3]  # 1 and 2 drained, 3 survived
    assert result["sweep"]["live_bytes"] > 0
    assert result["epoch"] == 6  # two adds, two drains at two bumps each
    _claims_evaluate(extra_elasticity_churn, result)


def test_fig14_schema():
    result = fig14_ycsb_scaling.run(
        workloads=("C",), client_counts=(1, 4), n_keys=300,
        window_us=2_000.0, systems=("ditto", "cm-lru"),
    )
    assert set(result["results"]["C"]) == {"ditto", "cm-lru"}
    point = result["results"]["C"]["ditto"][4]
    assert point["mops"] > 0 and point["p99_us"] > 0


def test_fig14_workload_d_runs():
    result = fig14_ycsb_scaling.run(
        workloads=("D",), client_counts=(4,), n_keys=300,
        window_us=2_000.0, systems=("ditto",),
    )
    assert result["results"]["D"]["ditto"][4]["mops"] > 0


def test_fig15_schema():
    result = fig15_mn_cpu_cores.run(
        workloads=("C",), core_counts=(1, 2), n_keys=300,
        clients=4, window_us=2_000.0,
    )
    per_system = result["results"]["C"]
    assert set(per_system) == {"ditto", "cliquemap", "redis"}
    _claims_evaluate(fig15_mn_cpu_cores, result)


def test_fig16_schema():
    result = fig16_real_world_tput.run(
        workload_names=("webmail",), systems=("ditto", "cm-lru"),
        n_requests=3_000, clients=4, window_us=4_000.0,
    )
    row = result["results"]["webmail"]
    assert set(row) == {"ditto", "cm-lru"}
    assert 0 <= row["ditto"]["hit_rate"] <= 1


def test_fig17_schema():
    result = fig17_real_world_hitrate.run(
        workload_names=("ibm",), size_fracs=(0.1,), n_requests=3_000,
        systems=("ditto", "ditto-lru"),
    )
    assert set(result["results"]["ibm"][0.1]) == {"ditto", "ditto-lru"}


def test_fig18_schema():
    result = fig18_corpus_boxplot.run(n_traces=4, n_requests=3_000)
    assert set(result["relative"]) == {"ditto", "max_expert", "min_expert"}
    assert all(len(v) == 4 for v in result["relative"].values())
    _claims_evaluate(fig18_corpus_boxplot, result)


def test_fig19_schema():
    result = fig19_changing_workload.run(
        n_requests=6_000, n_keys=256, clients=4, window_us=4_000.0
    )
    assert set(result["hit_rates"]) == {"ditto", "ditto-lru", "ditto-lfu"}
    assert set(result["throughput_mops"]) == set(result["hit_rates"])
    _claims_evaluate(fig19_changing_workload, result)


def test_fig20_schema():
    result = fig20_compute_mix.run(
        n_requests=4_000, n_keys=256, lru_portions=(0.0, 1.0)
    )
    assert len(result["rows"]) == 2
    assert result["rows"][0]["ditto-lru"] == 1.0
    _claims_evaluate(fig20_compute_mix, result)


def test_fig21_schema():
    result = fig21_client_scaling.run(
        n_requests=4_000, n_keys=256, client_counts=(1, 4)
    )
    assert len(result["rows"]) == 2
    _claims_evaluate(fig21_client_scaling, result)


def test_fig22_schema():
    result = fig22_memory_scaling.run(
        n_requests=6_000, n_keys=256, size_schedule=(0.1, 0.3)
    )
    assert len(result["rows"]) == 2
    assert result["rows"][1]["capacity"] > result["rows"][0]["capacity"]
    _claims_evaluate(fig22_memory_scaling, result)


def test_fig23_schema():
    result = fig23_twelve_algorithms.run(
        algorithms=("lru", "mru"), n_requests=3_000, n_keys=256,
        clients=2, window_us=2_000.0,
    )
    assert [r["algorithm"] for r in result["rows"]] == ["lru", "mru"]
    assert all(r["loc"] > 0 for r in result["rows"])
    _claims_evaluate(fig23_twelve_algorithms, result)


def test_fig24_schema():
    result = fig24_ablation.run(
        n_requests=3_000, n_keys=256, clients=4, window_us=2_000.0
    )
    variants = [r["variant"] for r in result["rows"]]
    assert "ditto (full)" in variants and "-sfht" in variants
    assert result["rows"][0]["relative"] == pytest.approx(1.0)
    _claims_evaluate(fig24_ablation, result)


def test_fig25_schema():
    mb = 1024 * 1024
    result = fig25_fc_cache_size.run(
        fc_sizes_bytes=(0, mb), n_keys=300, clients=4, window_us=2_000.0
    )
    assert len(result["rows"]) == 2
    assert result["rows"][1]["faas"] <= result["rows"][0]["faas"]
    _claims_evaluate(fig25_fc_cache_size, result)


def test_tab02_schema():
    result = tab02_workload_catalog.run(n_requests=2_000)
    assert len(result["rows"]) == 6
    _claims_evaluate(tab02_workload_catalog, result)
