"""Tests for the fast sampled/adaptive cache simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import SampledAdaptiveCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = SampledAdaptiveCache(4, policies=("lru",))
        assert cache.access("a") is False
        assert cache.access("a") is True
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_capacity_respected(self):
        cache = SampledAdaptiveCache(4, policies=("lru",))
        for i in range(100):
            cache.access(i)
            assert len(cache) <= 4

    def test_contains(self):
        cache = SampledAdaptiveCache(4, policies=("lru",))
        cache.access("a")
        assert "a" in cache and "b" not in cache

    def test_full_sample_is_exact_lru(self):
        """With sample_size >= capacity, sampling degenerates to exact LRU."""
        cache = SampledAdaptiveCache(3, policies=("lru",), sample_size=3)
        for key in ("a", "b", "c"):
            cache.access(key)
        cache.access("a")  # refresh a
        cache.access("d")  # evicts b (least recent)
        assert "b" not in cache
        assert all(k in cache for k in ("a", "c", "d"))

    def test_full_sample_is_exact_lfu(self):
        cache = SampledAdaptiveCache(3, policies=("lfu",), sample_size=3)
        for key in ("a", "a", "a", "b", "b", "c"):
            cache.access(key)
        cache.access("d")  # evicts c (freq 1)
        assert "c" not in cache and "a" in cache and "b" in cache

    def test_fifo_ignores_recency(self):
        cache = SampledAdaptiveCache(2, policies=("fifo",), sample_size=2)
        cache.access("a")
        cache.access("b")
        cache.access("a")  # refresh does not help FIFO
        cache.access("c")  # evicts a (oldest insert)
        assert "a" not in cache and "b" in cache

    def test_resize(self):
        cache = SampledAdaptiveCache(8, policies=("lru",))
        for i in range(8):
            cache.access(i)
        cache.resize(2)
        cache.access("new")
        assert len(cache) <= 8  # shrinks gradually via evictions
        for i in range(10):
            cache.access(f"more{i}")
        assert len(cache) <= 2

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SampledAdaptiveCache(0)
        with pytest.raises(ValueError):
            SampledAdaptiveCache(4).resize(0)


class TestAdaptive:
    def test_regrets_recorded(self):
        cache = SampledAdaptiveCache(4, policies=("lru", "lfu"), history_size=32, seed=1)
        for i in range(80):
            cache.access(i % 12)
        assert cache.regrets > 0

    def test_weights_remain_distribution(self):
        cache = SampledAdaptiveCache(8, policies=("lru", "lfu"), seed=1)
        for i in range(500):
            cache.access((i * 13) % 40)
        assert sum(cache.expert_weights) == pytest.approx(1.0)
        assert all(w > 0 for w in cache.expert_weights)

    def test_history_bounded(self):
        cache = SampledAdaptiveCache(8, policies=("lru", "lfu"), history_size=8, seed=1)
        for i in range(2000):
            cache.access(i)  # all misses: constant eviction
        assert len(cache._history) <= 3 * 8  # lazy pruning keeps it small

    def test_single_policy_has_no_adaptive_overhead(self):
        cache = SampledAdaptiveCache(4, policies=("lru",))
        for i in range(100):
            cache.access(i)
        assert cache.regrets == 0
        assert cache.adaptive is False

    def test_adaptive_tracks_best_on_stark_workload(self):
        """A loop larger than the cache: LRU fails badly, LFU retains a core;
        the adaptive cache must land much closer to LFU."""
        trace = [i % 450 for i in range(60_000)]

        def run(policies):
            cache = SampledAdaptiveCache(300, policies=policies, seed=3)
            for key in trace:
                cache.access(key)
            return cache.hit_rate()

        lru, lfu, ditto = run(("lru",)), run(("lfu",)), run(("lru", "lfu"))
        assert lfu > lru
        assert ditto > lru + 0.5 * (lfu - lru)

    def test_deterministic_given_seed(self):
        def run():
            cache = SampledAdaptiveCache(16, policies=("lru", "lfu"), seed=9)
            for i in range(300):
                cache.access((i * 7) % 60)
            return cache.hits, cache.evictions, tuple(cache.expert_weights)

        assert run() == run()


class TestPropertyInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=400),
        st.integers(1, 20),
        st.sampled_from([("lru",), ("lfu",), ("lru", "lfu"), ("fifo", "size")]),
    )
    def test_capacity_and_accounting_invariants(self, trace, capacity, policies):
        cache = SampledAdaptiveCache(capacity, policies=policies, seed=0)
        for key in trace:
            cache.access(key)
        assert len(cache) <= capacity
        assert cache.hits + cache.misses == len(trace)
        assert cache.evictions <= cache.misses
        # key bookkeeping consistent
        assert len(cache._keys) == len(cache._store)
        assert set(cache._keys) == set(cache._store)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 10), min_size=1, max_size=100))
    def test_hits_iff_present(self, trace):
        cache = SampledAdaptiveCache(5, policies=("lru",), seed=0)
        for key in trace:
            present = key in cache
            assert cache.access(key) == present
