"""Tests for the substrate micro-benchmarks (repro.bench.meta)."""

from repro.bench import meta


def test_bench_engine_counts_every_event():
    result = meta.bench_engine(processes=4, events_per_process=50)
    assert result["events"] == 4 * 50 + 4
    assert result["events_per_sec"] > 0


def test_bench_engine_scalar_and_storm_agree_on_counts():
    # ``batch`` is accepted for perf/probes.py and selects nothing.
    scalar = meta.bench_engine(4, 50, batch=False)
    storm = meta.bench_engine(4, 50, batch=True)
    assert scalar["events"] == storm["events"]


def test_bench_rdma_serves_all_verbs():
    result = meta.bench_rdma(clients=2, verbs_per_client=100)
    assert result["verbs"] == 200
    assert result["verbs_per_sec"] > 0


def test_bench_rdma_burst_serves_all_verbs():
    # ``burst`` is accepted for perf/probes.py and selects nothing.
    result = meta.bench_rdma(clients=2, verbs_per_client=100, burst=64)
    assert result["verbs"] == 200
    assert result["verbs_per_sec"] > 0


def test_bench_cachesim_replays_trace():
    result = meta.bench_cachesim(n_accesses=5000, n_keys=512, capacity=128)
    assert result["accesses"] == 5000
    assert 0.0 < result["hit_rate"] < 1.0
    assert result["evictions"] > 0


def test_bench_cachesim_paths_agree_on_results():
    scalar = meta.bench_cachesim(20000, 512, 128, vectorized=False)
    vec = meta.bench_cachesim(20000, 512, 128, vectorized=True)
    assert scalar["hit_rate"] == vec["hit_rate"]
    assert scalar["evictions"] == vec["evictions"]
