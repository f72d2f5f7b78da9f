"""Tests for trace mixing and concurrency interleaving."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    concurrent_view,
    interleave_shards,
    mix_traces,
    offset_keys,
    shard_trace,
)


class TestOffsetKeys:
    def test_shifts(self):
        assert list(offset_keys(np.array([0, 1, 2]), 100)) == [100, 101, 102]


class TestMixTraces:
    def test_weights_respected(self):
        a = np.zeros(10_000, dtype=np.int64)
        b = np.ones(10_000, dtype=np.int64)
        mixed = mix_traces([a, b], weights=[3, 1], n_requests=10_000, seed=1)
        share_a = float(np.mean(mixed == 0))
        assert share_a == pytest.approx(0.75, abs=0.02)

    def test_source_order_preserved(self):
        a = np.arange(100, dtype=np.int64)
        b = np.arange(1000, 1100, dtype=np.int64)
        mixed = mix_traces([a, b], weights=[1, 1], n_requests=150, seed=2)
        from_a = [x for x in mixed if x < 1000]
        assert from_a == sorted(from_a)

    def test_recycles_when_exhausted(self):
        a = np.array([7, 8], dtype=np.int64)
        mixed = mix_traces([a], weights=[1], n_requests=7, seed=3)
        assert list(mixed) == [7, 8, 7, 8, 7, 8, 7]

    def test_validation(self):
        with pytest.raises(ValueError):
            mix_traces([np.array([1])], weights=[1, 2], n_requests=5)
        with pytest.raises(ValueError):
            mix_traces([np.array([1])], weights=[0], n_requests=5)


class TestSharding:
    def test_shard_count_and_content(self):
        trace = np.arange(10, dtype=np.int64)
        shards = shard_trace(trace, 3)
        assert len(shards) == 3
        assert np.array_equal(np.concatenate(shards), trace)

    def test_round_robin_interleave(self):
        shards = [np.array([0, 1]), np.array([10, 11]), np.array([20, 21])]
        merged = interleave_shards(shards, mode="round_robin")
        assert list(merged) == [0, 10, 20, 1, 11, 21]

    def test_round_robin_uneven_shards(self):
        shards = [np.array([0, 1, 2]), np.array([10])]
        merged = interleave_shards(shards, mode="round_robin")
        assert sorted(merged) == [0, 1, 2, 10]
        assert len(merged) == 4

    def test_random_interleave_preserves_multiset(self):
        trace = np.arange(100, dtype=np.int64)
        merged = interleave_shards(shard_trace(trace, 7), mode="random", seed=5)
        assert sorted(merged) == list(range(100))

    def test_random_interleave_perturbs_order(self):
        trace = np.arange(1000, dtype=np.int64)
        merged = concurrent_view(trace, 8, mode="random", seed=5)
        assert not np.array_equal(merged, trace)

    def test_single_client_passthrough(self):
        trace = np.arange(10, dtype=np.int64)
        assert np.array_equal(concurrent_view(trace, 1), trace)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            interleave_shards([np.array([1])], mode="zigzag")

    def test_empty_input(self):
        assert len(interleave_shards([])) == 0

    def test_shard_validation(self):
        with pytest.raises(ValueError):
            shard_trace(np.array([1]), 0)


# -- the bulk interleave is the per-request loop ---------------------------


def _loop_interleave(shards, mode, seed):
    """The per-request loops ``interleave_shards`` replaced, kept as the
    reference its bulk draws must reproduce value for value."""
    sources = [np.asarray(s, dtype=np.int64) for s in shards if len(s)]
    if not sources:
        return np.empty(0, dtype=np.int64)
    total = sum(len(s) for s in sources)
    out = np.empty(total, dtype=np.int64)
    cursors = [0] * len(sources)
    produced = 0
    if mode == "round_robin":
        while produced < total:
            for idx, src in enumerate(sources):
                if cursors[idx] < len(src):
                    out[produced] = src[cursors[idx]]
                    cursors[idx] += 1
                    produced += 1
        return out
    rng = np.random.default_rng(seed)
    live = list(range(len(sources)))
    while live:
        pick = live[int(rng.integers(0, len(live)))]
        out[produced] = sources[pick][cursors[pick]]
        cursors[pick] += 1
        produced += 1
        if cursors[pick] >= len(sources[pick]):
            live.remove(pick)
    return out


def _loop_mix(traces, weights, n_requests, seed):
    probs = np.asarray(weights, dtype=np.float64) / float(sum(weights))
    rng = np.random.default_rng(seed)
    sources = [np.asarray(t, dtype=np.int64) for t in traces]
    cursors = [0] * len(sources)
    out = np.empty(n_requests, dtype=np.int64)
    for i, src_idx in enumerate(rng.choice(len(sources), size=n_requests, p=probs)):
        out[i] = sources[src_idx][cursors[src_idx] % len(sources[src_idx])]
        cursors[src_idx] += 1
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 31, 64, 1000])
def test_bulk_integers_are_scalar_integers(k):
    """The premise of the bulk random interleave: one ``integers(0, k,
    size=m)`` call yields the values of ``m`` scalar calls and leaves the
    bit generator in the same state.  A numpy release that breaks this
    fails here, not as a figure diff."""
    bulk, scalar = np.random.default_rng(k), np.random.default_rng(k)
    for m in (1, 2, 5, 257):
        drawn = bulk.integers(0, k, size=m)
        assert drawn.tolist() == [int(scalar.integers(0, k)) for _ in range(m)]
        assert bulk.bit_generator.state == scalar.bit_generator.state
    saved = bulk.bit_generator.state
    first = bulk.integers(0, k, size=100)
    bulk.bit_generator.state = saved
    assert np.array_equal(bulk.integers(0, k, size=40), first[:40])


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.one_of(
        st.lists(st.integers(0, 300), min_size=0, max_size=64),
        st.integers(1, 64).flatmap(
            lambda n: st.lists(st.integers(0, 40), min_size=n, max_size=n)
        ),
    ),
    seed=st.integers(0, 2**16),
)
def test_bulk_interleave_equals_loop(sizes, seed):
    rng = np.random.default_rng(seed)
    shards = [rng.integers(-5, 1 << 40, size=n) for n in sizes]
    for mode in ("round_robin", "random"):
        assert np.array_equal(
            interleave_shards(shards, mode=mode, seed=seed),
            _loop_interleave(shards, mode, seed),
        )


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_bulk_interleave_equals_loop_on_equal_shards(n):
    trace = np.arange(20_000, dtype=np.int64)
    for seed in (0, 3):
        assert np.array_equal(
            concurrent_view(trace, n, seed=seed),
            _loop_interleave(shard_trace(trace, n), "random", seed),
        )


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 50), min_size=1, max_size=6),
    n_requests=st.integers(0, 2000),
    seed=st.integers(0, 2**16),
)
def test_bulk_mix_equals_loop(lengths, n_requests, seed):
    traces = [np.arange(n, dtype=np.int64) + 1000 * i for i, n in enumerate(lengths)]
    weights = [1 + (i * 7) % 5 for i in range(len(lengths))]
    assert np.array_equal(
        mix_traces(traces, weights, n_requests, seed=seed),
        _loop_mix(traces, weights, n_requests, seed),
    )
