"""Unit tests for the frequency-counter cache (write combining, §4.2.2)."""

import pytest

from repro.core import FrequencyCounterCache


def test_first_access_buffers():
    fc = FrequencyCounterCache(threshold=10)
    assert fc.record(b"k", 100) == []
    assert len(fc) == 1


def test_threshold_flushes_combined_delta():
    fc = FrequencyCounterCache(threshold=3)
    flushes = []
    for _ in range(3):
        flushes += fc.record(b"k", 100)
    assert flushes == [(100, 3)]
    assert len(fc) == 0


def test_combining_ratio_bounded_by_threshold():
    """The paper's claim: FAAs reduced to up to 1/t of accesses."""
    fc = FrequencyCounterCache(threshold=10)
    total_faas = 0
    for _ in range(100):
        total_faas += len(fc.record(b"k", 100))
    total_faas += len(fc.flush_all())
    assert total_faas == 10  # 100 accesses -> 10 FAAs of delta 10


def test_capacity_evicts_earliest_insert():
    fc = FrequencyCounterCache(capacity_bytes=2 * (1 + 24), threshold=100)
    assert fc.record(b"a", 1) == []
    assert fc.record(b"b", 2) == []
    flushes = fc.record(b"c", 3)  # over capacity: a evicted
    assert flushes == [(1, 1)]
    assert len(fc) == 2


def test_slot_move_flushes_stale_delta():
    fc = FrequencyCounterCache(threshold=100)
    fc.record(b"k", 100)
    fc.record(b"k", 100)
    flushes = fc.record(b"k", 200)  # object moved slots
    assert (100, 2) in flushes
    # the new slot's counting starts fresh
    assert fc.flush_all() == [(200, 1)]


def test_threshold_one_bypasses_buffering():
    fc = FrequencyCounterCache(threshold=1)
    assert fc.record(b"k", 100) == [(100, 1)]
    assert len(fc) == 0


def test_tiny_capacity_bypasses_buffering():
    fc = FrequencyCounterCache(capacity_bytes=4, threshold=10)
    assert fc.record(b"some-long-key", 100) == [(100, 1)]


def test_flush_all_drains_everything():
    fc = FrequencyCounterCache(threshold=100)
    for key, addr in ((b"a", 1), (b"b", 2)):
        fc.record(key, addr)
        fc.record(key, addr)
    assert sorted(fc.flush_all()) == [(1, 2), (2, 2)]
    assert len(fc) == 0 and fc.used_bytes == 0


def test_combined_counter_tracks_absorbed_accesses():
    fc = FrequencyCounterCache(threshold=5)
    for _ in range(4):
        fc.record(b"k", 1)
    assert fc.combined == 3  # first access is not "combined"


def test_rejects_bad_threshold():
    with pytest.raises(ValueError):
        FrequencyCounterCache(threshold=0)


def test_used_bytes_accounting():
    fc = FrequencyCounterCache(threshold=100)
    fc.record(b"abc", 1)
    assert fc.used_bytes == 3 + FrequencyCounterCache.ENTRY_OVERHEAD
    fc.flush_all()
    assert fc.used_bytes == 0
