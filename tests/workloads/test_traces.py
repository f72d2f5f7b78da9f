"""Tests for the synthetic trace families and corpora."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import SampledAdaptiveCache
from repro.workloads import traces
from repro.workloads import (
    WORKLOAD_CATALOG,
    corpus,
    footprint,
    looping_trace,
    phase_switch_trace,
    scan_polluted_trace,
    shifting_hotspot_trace,
    webmail_like_trace,
    zipfian_trace,
)

GENERATORS = {
    "zipf": lambda n, k, s: zipfian_trace(n, k, seed=s),
    "drift": lambda n, k, s: shifting_hotspot_trace(n, k, seed=s),
    "scan": lambda n, k, s: scan_polluted_trace(n, k, seed=s),
    "phase": lambda n, k, s: phase_switch_trace(n, k, seed=s),
    "webmail": lambda n, k, s: webmail_like_trace(n, k, seed=s),
}


class TestGeneratorContracts:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_length_and_range(self, name):
        trace = GENERATORS[name](5000, 512, 3)
        assert len(trace) == 5000
        assert trace.min() >= 0 and trace.max() < 512
        assert trace.dtype == np.int64

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_deterministic(self, name):
        a = GENERATORS[name](2000, 256, 7)
        b = GENERATORS[name](2000, 256, 7)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_seed_changes_trace(self, name):
        a = GENERATORS[name](2000, 256, 1)
        b = GENERATORS[name](2000, 256, 2)
        assert not np.array_equal(a, b)

    def test_looping_trace_cycles(self):
        trace = looping_trace(10, loop_len=4)
        assert list(trace) == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_footprint(self):
        assert footprint([1, 1, 2, 3]) == 3
        assert footprint(looping_trace(100, loop_len=7)) == 7
        assert footprint([]) == 0


_INT64 = st.integers(-(1 << 63), (1 << 63) - 1)


@settings(max_examples=200, deadline=None)
@given(
    keys=st.lists(_INT64, max_size=120),
    pool=st.lists(_INT64, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), max_size=120),
    dtype=st.sampled_from([np.int64, np.uint64, None]),
)
def test_footprint_counts_what_np_unique_counts(keys, pool, picks, dtype):
    # Chunks of 7 accesses, so most traces span several chunks and repeat
    # keys across them (the picks draw from a small pool).
    trace = keys + [pool[i % len(pool)] for i in picks]
    if dtype is np.uint64:
        trace = np.array([k % (1 << 64) for k in trace], dtype=np.uint64)
    elif dtype is np.int64:
        trace = np.array(trace, dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traces, "FOOTPRINT_CHUNK", 7)
        assert footprint(trace) == np.unique(np.asarray(trace)).size


def test_footprint_holds_a_chunk_and_the_key_set():
    trace = webmail_like_trace(1_000_000, 4096, seed=5)
    tracemalloc.start()
    try:
        count = footprint(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == np.unique(trace).size
    # A sorted copy of the trace alone is 8 MB.
    assert peak < 4 * traces.FOOTPRINT_CHUNK * 8


def test_scan_polluted_draws_into_its_output():
    # The output and one Zipfian run at a time: about 1.14x the output's
    # bytes.  Two trace-length masks and one draw of every non-scan access
    # took about 2.5x.
    tracemalloc.start()
    try:
        out = scan_polluted_trace(1_000_000, 4096, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * out.nbytes


def test_webmail_composes_into_its_output():
    # The output, the choice masks and one component at a time: about
    # 2.8x the output's bytes.  Holding all three components and the
    # nested np.where temporaries at once took about 6.2x.
    tracemalloc.start()
    try:
        out = webmail_like_trace(1_000_000, 4096, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * out.nbytes


class TestAffinities:
    """The families must carry the LRU/LFU affinities the paper's
    experiments rely on."""

    @staticmethod
    def _hit(policies, trace, capacity):
        cache = SampledAdaptiveCache(capacity, policies=policies, seed=2)
        for key in trace:
            cache.access(int(key))
        return cache.hit_rate()

    def test_drift_is_lru_friendly(self):
        trace = shifting_hotspot_trace(40_000, 2048, seed=5)
        assert self._hit(("lru",), trace, 200) > self._hit(("lfu",), trace, 200) + 0.03

    def test_zipf_is_lfu_friendly(self):
        trace = zipfian_trace(40_000, 2048, theta=1.0, seed=5)
        assert self._hit(("lfu",), trace, 200) > self._hit(("lru",), trace, 200) + 0.02

    def test_scan_is_lfu_friendly(self):
        trace = scan_polluted_trace(40_000, 2048, seed=5)
        assert self._hit(("lfu",), trace, 200) > self._hit(("lru",), trace, 200) + 0.02

    def test_phase_switch_has_phases_with_opposite_affinity(self):
        n = 40_000
        trace = phase_switch_trace(n, 2048, phases=4, seed=5)
        quarter = n // 4
        lru_phase = trace[:quarter]
        lfu_phase = trace[quarter : 2 * quarter]
        assert self._hit(("lru",), lru_phase, 200) > self._hit(("lfu",), lru_phase, 200)
        assert self._hit(("lfu",), lfu_phase, 200) > self._hit(("lru",), lfu_phase, 200)


class TestCatalog:
    def test_table2_workloads_present(self):
        expected = {
            "webmail", "ibm", "cloudphysics",
            "twitter-transient", "twitter-storage", "twitter-compute",
        }
        assert set(WORKLOAD_CATALOG) == expected

    def test_catalog_types_match_table2(self):
        assert WORKLOAD_CATALOG["ibm"].workload_type == "Object Store"
        assert WORKLOAD_CATALOG["webmail"].workload_type == "Block IO"
        assert "key-value cache" in WORKLOAD_CATALOG["twitter-storage"].workload_type

    @pytest.mark.parametrize("name", sorted(WORKLOAD_CATALOG))
    def test_catalog_specs_generate(self, name):
        spec = WORKLOAD_CATALOG[name]
        trace = spec.trace(2000, seed=1)
        assert len(trace) == 2000
        assert trace.max() < spec.n_keys


class TestCorpus:
    def test_size_and_names_unique(self):
        specs = corpus(74, seed=0)
        assert len(specs) == 74
        assert len({s.name for s in specs}) == 74

    def test_covers_multiple_families(self):
        specs = corpus(20, seed=0)
        assert len({s.family for s in specs}) >= 4

    def test_deterministic(self):
        a = corpus(10, seed=3)
        b = corpus(10, seed=3)
        ta = a[4].trace(1000, seed=1)
        tb = b[4].trace(1000, seed=1)
        assert np.array_equal(ta, tb)

    def test_traces_generate_in_range(self):
        for spec in corpus(10, seed=2):
            trace = spec.trace(500, seed=0)
            assert trace.max() < spec.n_keys
