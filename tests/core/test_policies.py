"""Unit tests for the 12 caching algorithms (priority-function framework)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from repro.cachesim import SampledAdaptiveCache, vectorized
from repro.core import Metadata, POLICY_REGISTRY, make_policy, policy_loc
from repro.core.policies import (
    LRU,
    CachePolicy,
    live_hooks,
    priority_column,
)

ALL_POLICIES = sorted(POLICY_REGISTRY)


def meta(size=64, insert_ts=0, last_ts=0, freq=1, cost=1.0, ext=None):
    return Metadata(
        size=size, insert_ts=insert_ts, last_ts=last_ts, freq=freq, cost=cost,
        ext=dict(ext or {}),
    )


def victim(policy, metas, now=100):
    """Index of the metadata the policy would evict."""
    priorities = [policy.priority(m, now) for m in metas]
    return priorities.index(min(priorities))


class TestRegistry:
    def test_twelve_algorithms_registered(self):
        assert len(POLICY_REGISTRY) == 12
        expected = {
            "lru", "lfu", "mru", "gds", "lirs", "fifo",
            "size", "gdsf", "lrfu", "lruk", "lfuda", "hyperbolic",
        }
        assert set(POLICY_REGISTRY) == expected

    def test_make_policy_case_insensitive(self):
        assert make_policy("LRU").name == "lru"

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError, match="unknown policy"):
            make_policy("clairvoyant")

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_every_policy_declares_info(self, name):
        policy = make_policy(name)
        assert isinstance(policy.info, tuple)
        assert policy.info, f"{name} must declare its access information"

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_every_policy_computes_priority(self, name):
        policy = make_policy(name)
        m = meta()
        policy.on_insert(m, 0)
        policy.update(m, 50)
        assert isinstance(policy.priority(m, 100), (int, float))


class TestRecencyPolicies:
    def test_lru_evicts_least_recent(self):
        policy = make_policy("lru")
        metas = [meta(last_ts=30), meta(last_ts=10), meta(last_ts=20)]
        assert victim(policy, metas) == 1

    def test_mru_evicts_most_recent(self):
        policy = make_policy("mru")
        metas = [meta(last_ts=30), meta(last_ts=10), meta(last_ts=20)]
        assert victim(policy, metas) == 0

    def test_fifo_evicts_oldest_insert(self):
        policy = make_policy("fifo")
        metas = [meta(insert_ts=5, last_ts=99), meta(insert_ts=1, last_ts=100)]
        assert victim(policy, metas) == 1


class TestFrequencyPolicies:
    def test_lfu_evicts_least_frequent(self):
        policy = make_policy("lfu")
        metas = [meta(freq=10), meta(freq=2), meta(freq=5)]
        assert victim(policy, metas) == 1

    def test_lfuda_ages_via_inflation(self):
        policy = make_policy("lfuda")
        old_popular = meta(freq=10)
        policy.update(old_popular, 0)
        policy.on_evict(meta(freq=8, ext={"lfuda_h": 8.0}), 0)  # L becomes 8
        newcomer = meta(freq=1)
        policy.update(newcomer, 1)
        # newcomer H = 8 + 1 = 9 < old_popular H = 10 -> evicted first
        assert policy.priority(newcomer, 2) < policy.priority(old_popular, 2)


class TestSizeAwarePolicies:
    def test_size_evicts_largest(self):
        policy = make_policy("size")
        metas = [meta(size=64), meta(size=1024), meta(size=256)]
        assert victim(policy, metas) == 1

    def test_gds_prefers_small_cost_per_byte(self):
        policy = make_policy("gds")
        big, small = meta(size=1000), meta(size=10)
        policy.update(big, 0)
        policy.update(small, 0)
        assert victim(policy, [big, small]) == 0

    def test_gds_inflation_monotonic(self):
        policy = make_policy("gds")
        m = meta(size=10)
        policy.update(m, 0)
        assert policy.inflation == 0.0
        policy.on_evict(m, 0)
        assert policy.inflation == pytest.approx(0.1)
        policy.on_evict(meta(size=1000, ext={"gds_h": 0.001}), 0)
        assert policy.inflation == pytest.approx(0.1)  # never decreases

    def test_gdsf_weighs_frequency(self):
        policy = make_policy("gdsf")
        hot, cold = meta(size=100, freq=50), meta(size=100, freq=1)
        policy.update(hot, 0)
        policy.update(cold, 0)
        assert victim(policy, [hot, cold]) == 1

    def test_hyperbolic_hit_density(self):
        policy = make_policy("hyperbolic")
        dense = meta(freq=100, insert_ts=0, size=1)
        sparse = meta(freq=1, insert_ts=0, size=1)
        assert victim(policy, [dense, sparse], now=100) == 1

    def test_hyperbolic_penalizes_large_objects(self):
        policy = make_policy("hyperbolic")
        small = meta(freq=10, insert_ts=0, size=1)
        large = meta(freq=10, insert_ts=0, size=100)
        assert victim(policy, [small, large], now=100) == 1


class TestLRUK:
    def test_matches_paper_listing(self):
        """Reproduce Listing 1: ring buffer of K timestamps."""
        policy = make_policy("lruk", k=2)
        m = meta(insert_ts=0, freq=0)
        # fewer than K accesses -> FIFO on insert_ts
        m.freq = 1
        policy.update(m, 10)
        assert policy.priority(m, 11) == m.insert_ts
        # second access at t=20: K-th most recent access is t=10
        m.freq = 2
        policy.update(m, 20)
        assert policy.priority(m, 21) == 10

    def test_prefers_evicting_single_access_objects(self):
        policy = make_policy("lruk", k=2)
        once = meta(insert_ts=5, freq=1)
        policy.update(once, 50)
        twice = meta(insert_ts=6, freq=2)
        twice.ext["lruk_ts0"] = 40
        twice.ext["lruk_ts1"] = 60
        assert victim(policy, [once, twice], now=100) == 0


class TestLRFU:
    def test_crf_grows_with_hits(self):
        policy = make_policy("lrfu", decay_half_life=100.0)
        m = meta(last_ts=0)
        policy.update(m, 0)
        one_hit = policy.priority(m, 0)
        m.last_ts = 0
        policy.update(m, 0)
        assert policy.priority(m, 0) > one_hit

    def test_crf_decays_over_time(self):
        policy = make_policy("lrfu", decay_half_life=10.0)
        m = meta(last_ts=0)
        policy.update(m, 0)
        now_value = policy.priority(m, 0)
        later_value = policy.priority(m, 100)
        assert later_value < now_value


class TestLIRS:
    def test_single_access_objects_evicted_first(self):
        policy = make_policy("lirs")
        once = meta(freq=1)
        policy.update(once, 10)
        hot = meta(freq=3, last_ts=90)
        policy.update(hot, 100)
        assert victim(policy, [hot, once], now=100) == 1

    def test_larger_irr_evicted_earlier(self):
        policy = make_policy("lirs")
        tight = meta(freq=2, last_ts=95)
        policy.update(tight, 100)  # IRR 5
        loose = meta(freq=2, last_ts=10)
        policy.update(loose, 100)  # IRR 90
        assert victim(policy, [tight, loose], now=100) == 1


class TestPolicyLoc:
    def test_loc_counts_are_small(self):
        """Table 3: every algorithm integrates in a few lines of code."""
        for name in ALL_POLICIES:
            loc = policy_loc(make_policy(name))
            assert 1 <= loc <= 30, f"{name}: {loc} LOC"

    def test_base_policy_loc_is_zero(self):
        assert policy_loc(CachePolicy()) == 0


class TestMetadata:
    def test_defaults(self):
        m = Metadata()
        assert m.freq == 0 and m.ext == {}

    def test_table1_fields_present(self):
        m = Metadata()
        for field in ("size", "insert_ts", "last_ts", "freq", "latency", "cost"):
            assert hasattr(m, field)

    @given(
        st.integers(1, 10_000),
        st.integers(0, 1_000_000),
        st.integers(0, 100),
    )
    def test_lru_priority_equals_last_ts(self, size, last_ts, freq):
        policy = make_policy("lru")
        assert policy.priority(meta(size=size, last_ts=last_ts, freq=freq), 0) == last_ts


#: Registry names whose ``priority`` is a declared column.
COLUMN_POLICIES = [
    name for name in ALL_POLICIES
    if priority_column(make_policy(name)) is not None
]


class OverridingLRU(LRU):
    """Inherits LRU's column declaration but not its ``priority``."""

    def priority(self, m: Metadata, now: float) -> float:
        return m.freq


class RedeclaringLRU(LRU):
    """Declares a column its inherited ``priority`` does not return."""

    column = ("freq", 1)


class PlainLRU(LRU):
    """Changes nothing: LRU's declaration still holds."""


class TestPriorityColumn:
    def test_the_four_declarations(self):
        assert {name: priority_column(make_policy(name))
                for name in COLUMN_POLICIES} == {
            "lru": ("last_ts", 1),
            "mru": ("last_ts", -1),
            "lfu": ("freq", 1),
            "fifo": ("insert_ts", 1),
        }
        assert CachePolicy.column is None

    @given(
        st.sampled_from(COLUMN_POLICIES),
        st.integers(1, 10_000),
        st.integers(0, 1 << 40),
        st.integers(0, 1 << 40),
        st.integers(0, 1 << 20),
        st.integers(0, 1 << 40),
    )
    def test_every_declared_column_equals_its_priority(
            self, name, size, insert_ts, last_ts, freq, now):
        policy = make_policy(name)
        field, sign = priority_column(policy)
        m = meta(size=size, insert_ts=insert_ts, last_ts=last_ts, freq=freq)
        assert sign * getattr(m, field) == policy.priority(m, now)

    def test_counts_only_with_the_declaring_class_priority(self):
        assert priority_column(OverridingLRU()) is None
        assert priority_column(RedeclaringLRU()) is None
        assert priority_column(PlainLRU()) == ("last_ts", 1)

    def test_vectorized_replay_refuses_an_overriding_subclass(self, monkeypatch):
        keys = np.arange(4096, dtype=np.int64) % 700
        for policy, expected in (
            (LRU, True), (PlainLRU, True),
            (OverridingLRU, False), (RedeclaringLRU, False),
        ):
            name = policy.__name__.lower()
            monkeypatch.setitem(POLICY_REGISTRY, name, policy)
            cache = SampledAdaptiveCache(256, policies=(name,), seed=1)
            assert vectorized.eligible(cache, keys) is expected, name


class TestLiveHooks:
    @staticmethod
    def _owners(hooks):
        return [[type(hook.__self__).name for hook in group] for group in hooks]

    def test_column_policies_have_none(self):
        policies = [make_policy(name) for name in COLUMN_POLICIES]
        assert live_hooks(policies) == ((), (), ())

    def test_names_each_overridden_hook(self):
        policies = [make_policy(name) for name in ("lru", "gds", "lruk", "lirs")]
        assert self._owners(live_hooks(policies)) == [
            ["gds", "lruk", "lirs"],  # update
            ["gds", "lruk", "lirs"],  # on_insert, via update
            ["gds"],  # on_evict
        ]
