"""Tests for the exact cache models (CM baselines, random)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.hitrate import make_hit_cache
from repro.cachesim import (
    ExactLFUCache,
    ExactLRUCache,
    RandomCache,
)


class TestExactLRU:
    def test_textbook_sequence(self):
        cache = ExactLRUCache(2)
        cache.access("a")
        cache.access("b")
        cache.access("a")  # refresh a
        cache.access("c")  # evicts b
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_counters(self):
        cache = ExactLRUCache(2)
        cache.access("a")
        cache.access("a")
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_touch_no_accounting(self):
        cache = ExactLRUCache(2)
        cache.access("a")
        cache.access("b")
        assert cache.touch("a") is True
        assert cache.touch("ghost") is False
        assert (cache.hits, cache.misses) == (0, 2)
        cache.access("c")  # b was least recent after the touch
        assert "b" not in cache and "a" in cache

    def test_insert_returns_evicted(self):
        cache = ExactLRUCache(1)
        assert cache.insert("a") == []
        assert cache.insert("b") == ["a"]

    def test_capacity_bound(self):
        cache = ExactLRUCache(3)
        for i in range(50):
            cache.access(i)
        assert len(cache) == 3


class TestExactLFU:
    def test_evicts_least_frequent(self):
        cache = ExactLFUCache(2)
        for key in ("a", "a", "b"):
            cache.access(key)
        cache.access("c")  # b has freq 1, a has 2
        assert "b" not in cache and "a" in cache

    def test_tie_breaks_lru(self):
        cache = ExactLFUCache(2)
        cache.access("a")
        cache.access("b")
        cache.access("c")  # a and b tie at freq 1; a is older
        assert "a" not in cache and "b" in cache

    def test_frequency_survives_capacity_pressure(self):
        cache = ExactLFUCache(3)
        for _ in range(10):
            cache.access("hot")
        for i in range(20):
            cache.access(f"cold{i}")
        assert "hot" in cache

    def test_touch_and_insert(self):
        cache = ExactLFUCache(2)
        cache.insert("a")
        cache.insert("b")
        cache.touch("a")  # a now freq 2
        evicted = cache.insert("c")
        assert evicted == ["b"]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=200), st.integers(1, 8))
    def test_matches_naive_lfu(self, trace, capacity):
        """Cross-check the O(1) LFU against a brute-force reference."""
        fast = ExactLFUCache(capacity)
        store = {}  # key -> [freq, last_tick]
        tick = 0
        for key in trace:
            tick += 1
            fast_hit = fast.access(key)
            ref_hit = key in store
            if ref_hit:
                store[key][0] += 1
                store[key][1] = tick
            else:
                if len(store) >= capacity:
                    victim = min(store, key=lambda k: (store[k][0], store[k][1]))
                    del store[victim]
                store[key] = [1, tick]
            assert fast_hit == ref_hit
        assert set(store) == {k for k in store if k in fast}


class TestRandomCache:
    def test_capacity(self):
        cache = RandomCache(4, seed=1)
        for i in range(100):
            cache.access(i)
            assert len(cache) <= 4

    def test_hits_for_resident_keys(self):
        cache = RandomCache(4, seed=1)
        cache.access("a")
        assert cache.access("a") is True

    def test_deterministic_by_seed(self):
        def run(seed):
            cache = RandomCache(4, seed=seed)
            return [cache.access(i % 10) for i in range(100)]

        assert run(7) == run(7)


def _state(cache):
    """Counters plus every structure whose order decides a later victim."""
    if isinstance(cache, ExactLRUCache):
        order = list(cache._store)
    elif isinstance(cache, ExactLFUCache):
        order = (
            list(cache._freq.items()),
            cache._min_freq,
            [(freq, list(bucket)) for freq, bucket in cache._buckets.items()],
        )
    else:
        order = (list(cache._keys), list(cache._present.items()),
                 cache._rng.getstate())
    return cache.hits, cache.misses, cache.evictions, order


@settings(max_examples=40, deadline=None)
@given(
    trace=st.lists(st.integers(0, 40), min_size=1, max_size=300),
    capacity=st.integers(1, 12),
    system=st.sampled_from(["cm-lru", "cm-lfu", "random"]),
    seed=st.integers(0, 20),
)
def test_access_many_matches_per_key_access(trace, capacity, system, seed):
    one_by_one = make_hit_cache(system, capacity, seed=seed)
    for key in trace:
        one_by_one.access(key)
    batched = make_hit_cache(system, capacity, seed=seed)
    hits = batched.access_many(np.asarray(trace, dtype=np.int64))
    assert hits == one_by_one.hits
    assert _state(batched) == _state(one_by_one)


def test_resize_validation():
    for cls in (ExactLRUCache, ExactLFUCache):
        with pytest.raises(ValueError):
            cls(0)
        cache = cls(2)
        with pytest.raises(ValueError):
            cache.resize(0)
