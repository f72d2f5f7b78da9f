"""Byte-identity of the vectorized cachesim replay vs the scalar loop.

The vectorized path (``repro.cachesim.vectorized``) is an optimization, not
a model: for every eligible configuration it must leave the cache in a state
indistinguishable from the scalar per-access loop — same counters, same
store (including dict insertion order), same packed history, same expert
weights, and the *same RNG stream position*, so a scalar access issued after
a vectorized batch continues the exact sequence.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import hitrate
from repro.bench.experiments import (
    extra_history_size,
    extra_sample_size,
    fig22_memory_scaling,
)
from repro.cachesim import SampledAdaptiveCache
from repro.cachesim import decode, vectorized
from repro.workloads.traces import phase_switch_trace, zipfian_trace


def snapshot(cache):
    """Every observable (and replay-relevant internal) piece of state."""
    return {
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "tick": cache._tick,
        "store": [
            (k, m.freq, m.last_ts, m.insert_ts, m.size, m.cost)
            for k, m in cache._store.items()
        ],
        "keys": list(cache._keys),
        "key_pos": dict(cache._key_pos),
        "history": dict(cache._history),
        "history_fifo": list(cache._history_fifo),
        "history_base": cache._history_base,
        "history_counter": cache._history_counter,
        "weights": list(cache.weights.weights),
        "pending": list(cache.weights._pending),
        "pending_count": cache.weights._pending_count,
        "rng": cache.rng.getstate(),
    }


def replay_both(trace, splits=(), resizes=None, **config):
    """Scalar-replay and vectorized-replay the same trace; return snapshots.

    ``splits`` cuts the trace into consecutive batches, exercising state
    carry-over between vectorized calls.  ``resizes`` maps a position in
    the trace to the capacity both caches ``resize`` to just before it;
    each position is also a split.
    """
    resizes = resizes or {}
    scalar = SampledAdaptiveCache(**config)
    for i, key in enumerate(trace):
        if i in resizes:
            scalar.resize(resizes[i])
        scalar.access(int(key))

    vec = SampledAdaptiveCache(**config)
    arr = np.asarray(trace, dtype=np.int64)
    bounds = [0, *sorted({*splits, *resizes}), len(trace)]
    for lo, hi in zip(bounds, bounds[1:]):
        if lo in resizes:
            vec.resize(resizes[lo])
        batch = arr[lo:hi]
        if batch.size == 0:
            continue
        assert vectorized.eligible(vec, batch), "config must stay eligible"
        vectorized.replay(vec, batch)
    return snapshot(scalar), snapshot(vec)


POLICY_SETS = [("lru", "lfu"), ("lru",), ("lfu",), ("fifo",), ("mru",),
               ("mru", "fifo"), ("fifo", "lru")]


@pytest.mark.parametrize("policies", POLICY_SETS)
def test_identity_on_zipf_like_trace(policies):
    rng = random.Random(7)
    trace = [int(rng.paretovariate(1.2)) % 300 for _ in range(4000)]
    scalar, vec = replay_both(
        trace, capacity=64, policies=policies, seed=3)
    assert scalar == vec


def test_identity_across_batch_boundaries():
    rng = random.Random(1)
    trace = [rng.randrange(200) for _ in range(3000)]
    scalar, vec = replay_both(
        trace, splits=(500, 1999), capacity=48, policies=("lru", "lfu"),
        seed=9)
    assert scalar == vec


def _two_batches(first_keys, second_keys, seed, size=2000):
    rng = random.Random(seed)
    return ([rng.randrange(first_keys) for _ in range(size)]
            + [rng.randrange(second_keys) for _ in range(size)])


@pytest.mark.parametrize(
    "policies, trace, config",
    [
        # A shrinking resize leaves the store over-full (more keys than
        # capacity), so the second batch samples slots from raw uniforms
        # until the store is back at capacity.
        (("lru",), _two_batches(300, 300, 8), dict(resizes={2000: 20})),
        (("lfu",), _two_batches(300, 300, 8), dict(resizes={2000: 20})),
        (("lru", "lfu"), _two_batches(300, 300, 8),
         dict(resizes={2000: 20})),
        # The second batch reaches only keys 0-49 while the history still
        # holds keys up to 599 from the first.
        (("lru", "lfu"), _two_batches(600, 50, 3), dict(splits=(2000,))),
    ],
    ids=["shrink-lru", "shrink-lfu", "shrink-lru-lfu", "history-beyond-trace"],
)
def test_identity_across_two_batches(policies, trace, config):
    scalar, vec = replay_both(
        trace, capacity=32, policies=policies, seed=6, **config)
    assert scalar == vec
    assert vec["evictions"] > 0


def test_history_holds_keys_beyond_the_next_batch():
    # The precondition of "history-beyond-trace" above: after the first
    # batch some history key is above every resident key and above the
    # second batch's keys, so only the history sizes the dense column.
    cache = SampledAdaptiveCache(32, policies=("lru", "lfu"), seed=6)
    cache.access_many(np.asarray(_two_batches(600, 50, 3)[:2000]))
    assert max(cache._history) > max(max(cache._keys), 49)


def test_identity_tiny_store_never_draws():
    # capacity <= sample_size: eviction scans the whole store, no RNG draws.
    trace = [i % 20 for i in range(400)]
    scalar, vec = replay_both(
        trace, capacity=8, policies=("lru", "lfu"), sample_size=16, seed=0)
    assert scalar == vec


@pytest.mark.parametrize("capacity", [4, 5, 6])
@pytest.mark.parametrize("policies", [("lru", "lfu"), ("lru",)])
def test_identity_around_the_default_sample_size(capacity, policies):
    # A store no larger than the sample of 5 is scanned whole, without
    # draws; one slot more takes the unrolled scan.
    rng = random.Random(5)
    trace = [rng.randrange(40) for _ in range(1500)]
    scalar, vec = replay_both(
        trace, capacity=capacity, policies=policies, seed=1)
    assert scalar == vec


def test_scalar_access_continues_after_vectorized_batch():
    config = dict(capacity=32, policies=("lru", "lfu"), seed=5)
    trace = [random.Random(2).randrange(100) for _ in range(2000)]
    trace = [v for v in trace]
    scalar = SampledAdaptiveCache(**config)
    for key in trace:
        scalar.access(key)
    for key in (1, 2, 3, 99, 1):
        scalar.access(key)

    vec = SampledAdaptiveCache(**config)
    vectorized.replay(vec, np.asarray(trace, dtype=np.int64))
    for key in (1, 2, 3, 99, 1):
        vec.access(key)  # scalar tail must continue the exact RNG stream
    assert snapshot(scalar) == snapshot(vec)


@settings(max_examples=40, deadline=None)
@given(
    trace=st.lists(st.integers(min_value=0, max_value=120),
                   min_size=1, max_size=600),
    capacity=st.integers(min_value=2, max_value=40),
    sample_size=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=50),
    policies=st.sampled_from(POLICY_SETS),
    data=st.data(),
)
def test_identity_property(trace, capacity, sample_size, seed, policies, data):
    # The ranges extra-samples (K up to 32) and extra-history (history up
    # to 4x the cache) run.
    history_size = data.draw(
        st.none() | st.integers(min_value=1, max_value=4 * capacity),
        label="history_size")
    scalar, vec = replay_both(
        trace, capacity=capacity, policies=policies,
        sample_size=sample_size, history_size=history_size, seed=seed)
    assert scalar == vec


@pytest.mark.parametrize("policies", [("lru",), ("lfu",), ("fifo",), ("mru",)])
def test_single_expert_keeps_no_history(policies):
    # Only two experts collect regret, so neither path records a history
    # nobody reads.
    rng = random.Random(4)
    trace = [rng.randrange(300) for _ in range(4000)]
    for state in replay_both(trace, capacity=32, policies=policies, seed=2):
        assert state["evictions"] > 0
        assert state["history"] == {} and state["history_fifo"] == []
        assert state["history_counter"] == 0


@settings(max_examples=20, deadline=None)
@given(
    trace=st.lists(st.integers(min_value=0, max_value=60),
                   min_size=2, max_size=400),
    cut=st.integers(min_value=1, max_value=399),
    seed=st.integers(min_value=0, max_value=20),
)
def test_identity_property_with_split(trace, cut, seed):
    scalar, vec = replay_both(
        trace, splits=(min(cut, len(trace) - 1),), capacity=16,
        policies=("lru", "lfu"), seed=seed)
    assert scalar == vec


# -- dispatch & eligibility gating -------------------------------------------


def test_access_many_uses_vectorized_for_large_arrays(monkeypatch):
    calls = []
    original = vectorized.replay

    def spy(cache, keys):
        calls.append(len(keys))
        return original(cache, keys)

    monkeypatch.setattr(vectorized, "replay", spy)
    cache = SampledAdaptiveCache(64, policies=("lru", "lfu"), seed=0)
    trace = np.arange(vectorized.MIN_BATCH, dtype=np.int64) % 200
    cache.access_many(trace)
    assert calls == [vectorized.MIN_BATCH]


def test_access_many_small_batches_stay_scalar(monkeypatch):
    monkeypatch.setattr(
        vectorized, "replay",
        lambda *a: pytest.fail("scalar path expected"))
    cache = SampledAdaptiveCache(64, policies=("lru", "lfu"), seed=0)
    cache.access_many(np.arange(vectorized.MIN_BATCH - 1, dtype=np.int64))
    assert cache.hits + cache.misses == vectorized.MIN_BATCH - 1


def test_env_switch_forces_scalar(monkeypatch):
    monkeypatch.setenv("REPRO_VECTORIZE", "0")
    cache = SampledAdaptiveCache(64, policies=("lru", "lfu"), seed=0)
    keys = np.arange(2048, dtype=np.int64) % 100
    assert not vectorized.eligible(cache, keys)
    monkeypatch.setattr(
        vectorized, "replay",
        lambda *a: pytest.fail("REPRO_VECTORIZE=0 must force scalar"))
    cache.access_many(keys)
    assert cache.hits + cache.misses == 2048


@pytest.mark.parametrize("system", ["ditto", "ditto-lru", "ditto-lfu"])
def test_hit_rate_tier_caches_engage_the_vectorized_replay(monkeypatch, system):
    # The hit-rate figures' caches over the Figure 19 trace must take the
    # vectorized replay; a silent fallback to scalar shows here as no call.
    calls = []
    original = vectorized.replay

    def spy(cache, keys):
        calls.append(len(keys))
        return original(cache, keys)

    monkeypatch.setattr(vectorized, "replay", spy)
    trace = phase_switch_trace(8000, 1024, seed=1)
    monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
    fast = hitrate.replay(hitrate.make_hit_cache(system, 128), trace)
    assert calls, f"{system} replayed scalar"
    calls.clear()
    monkeypatch.setenv("REPRO_VECTORIZE", "0")
    scalar = hitrate.replay(hitrate.make_hit_cache(system, 128), trace)
    assert not calls, "REPRO_VECTORIZE=0 must force scalar"
    assert fast == scalar


@pytest.mark.parametrize(
    "experiment, params, replays",
    [
        (extra_history_size,
         dict(history_factors=(0.5, 2.0), n_requests=2048, n_keys=512), 2),
        (extra_sample_size,
         dict(sample_sizes=(3, 5), n_requests=2048, n_keys=512), 4),
        (fig22_memory_scaling,
         dict(size_schedule=(0.05, 0.2), n_requests=4096, n_keys=512), 6),
    ],
    ids=["extra-history", "extra-samples", "fig22"],
)
def test_experiments_replay_each_trace_in_one_vectorized_call(
        monkeypatch, experiment, params, replays):
    calls = []
    original = vectorized.replay

    def spy(cache, keys):
        calls.append(len(keys))
        return original(cache, keys)

    monkeypatch.setattr(vectorized, "replay", spy)
    monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
    experiment.run(**params)
    assert len(calls) == replays
    assert min(calls) >= vectorized.MIN_BATCH


def test_unsupported_policy_not_eligible():
    cache = SampledAdaptiveCache(
        64, policies=("lru", "size"), seed=0)  # size-based: not vectorized
    keys = np.arange(2048, dtype=np.int64)
    assert not vectorized.eligible(cache, keys)


def test_huge_keys_not_eligible():
    cache = SampledAdaptiveCache(64, policies=("lru", "lfu"), seed=0)
    keys = np.array([vectorized.MAX_KEY + 1] * 2048, dtype=np.int64)
    assert not vectorized.eligible(cache, keys)


def test_history_key_outside_the_range_not_eligible():
    # The dense history is indexed by key, so a key that only the history
    # still holds must be an int in range too.
    cache = SampledAdaptiveCache(
        8, policies=("lru", "lfu"), history_size=10_000, seed=0)
    cache.access("a")
    for key in range(500):
        cache.access(key)
    assert "a" in cache._history and "a" not in cache
    assert not vectorized.eligible(cache, np.arange(2048, dtype=np.int64))


def test_float_trace_not_eligible():
    cache = SampledAdaptiveCache(64, policies=("lru", "lfu"), seed=0)
    assert not vectorized.eligible(cache, np.ones(2048, dtype=np.float64))


def test_vectorized_result_matches_hit_rate_contract():
    cache = SampledAdaptiveCache(128, policies=("lru", "lfu"), seed=0)
    keys = (np.arange(4096, dtype=np.int64) * 17) % 512
    vectorized.replay(cache, keys)
    assert cache.hits + cache.misses == 4096
    assert 0.0 <= cache.hit_rate() <= 1.0


# -- chunked decode ------------------------------------------------------------


def state(cache):
    """:func:`snapshot` for the sampled model; every attribute of an exact
    one, with ordered containers compared in order and rngs by state."""
    if isinstance(cache, SampledAdaptiveCache):
        return snapshot(cache)
    out = {}
    for name, value in vars(cache).items():
        if isinstance(value, random.Random):
            value = value.getstate()
        elif isinstance(value, dict):
            value = list(value.items())
        out[name] = value
    return out


HIT_SYSTEMS = ["ditto", "ditto-lru", "ditto-lfu", "ditto-fifo", "cm-lru",
               "cm-lfu", "random"]


@pytest.mark.parametrize("system", HIT_SYSTEMS)
def test_access_many_takes_a_list_like_an_array(system):
    rng = random.Random(6)
    keys = [rng.randrange(400) for _ in range(3000)]
    from_list = hitrate.make_hit_cache(system, 48, seed=2)
    from_array = hitrate.make_hit_cache(system, 48, seed=2)
    hits = from_list.access_many(keys)
    assert hits == from_array.access_many(np.asarray(keys, dtype=np.int64))
    assert state(from_list) == state(from_array)


def per_key(system, trace, capacity, seed):
    cache = hitrate.make_hit_cache(system, capacity, seed=seed)
    for key in trace:
        cache.access(key)
    return state(cache)


@pytest.fixture
def chunked_trace(monkeypatch):
    """A chunk of 97 keys: the traces below cross hundreds of chunk
    boundaries and, with capacity 64 over 600 keys, refill the vectorized
    replay's draw block (``BLOCK``) many times."""
    monkeypatch.setattr(decode, "CHUNK", 97)
    rng = random.Random(11)
    return [rng.randrange(600) for _ in range(20_000)]


@pytest.mark.parametrize("policies", [("lru", "lfu"), ("lru",)])
def test_vectorized_replay_across_chunks(chunked_trace, policies):
    scalar, vec = replay_both(
        chunked_trace, capacity=64, policies=policies, seed=4)
    assert scalar == vec
    assert vec["rng"] != SampledAdaptiveCache(64, seed=4).rng.getstate()


@pytest.mark.parametrize("kind", [list, np.asarray])
def test_scalar_sampled_replay_across_chunks(chunked_trace, monkeypatch, kind):
    monkeypatch.setenv("REPRO_VECTORIZE", "0")
    cache = hitrate.make_hit_cache("ditto", 64, seed=4)
    cache.access_many(kind(chunked_trace))
    assert state(cache) == per_key("ditto", chunked_trace, 64, 4)


@pytest.mark.parametrize("system", ["cm-lru", "cm-lfu", "random"])
@pytest.mark.parametrize("kind", [list, np.asarray])
def test_exact_replay_across_chunks(chunked_trace, system, kind):
    cache = hitrate.make_hit_cache(system, 64, seed=4)
    cache.access_many(kind(chunked_trace))
    assert state(cache) == per_key(system, chunked_trace, 64, 4)


def test_windowed_replay_across_chunks(chunked_trace):
    cache = hitrate.make_hit_cache("ditto", 64, seed=4)
    hitrate.replay_windowed(cache, chunked_trace, windows=7)
    assert state(cache) == per_key("ditto", chunked_trace, 64, 4)


def replay_peak(system, n):
    """Peak bytes traced while ``system`` replays an ``n``-access trace."""
    keys = zipfian_trace(n, 4096, seed=3)
    cache = hitrate.make_hit_cache(system, 256, seed=0)
    tracemalloc.start()
    try:
        cache.access_many(keys)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("system", ["ditto", "cm-lru"])
def test_replay_memory_does_not_grow_with_the_trace(monkeypatch, system):
    # A whole-trace decode costs about 36 B per access (an 8 B list slot
    # and a 28 B int), so 3 * 4096 more accesses would add about 440 KB;
    # decoding a chunk at a time adds nothing.  The chunk is made small
    # so that traces long enough to span many chunks replay quickly
    # under tracemalloc.
    monkeypatch.setattr(decode, "CHUNK", 512)
    n = 4096
    growth = replay_peak(system, 4 * n) - replay_peak(system, n)
    assert growth < 32 * 1024
