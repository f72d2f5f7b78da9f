"""Unit tests for the logical FIFO queue / lightweight history (§4.3.1)
and the history table that stands in for it without LWH."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import DittoCluster, DittoConfig
from repro.core import layout as L
from repro.core.history import (
    HISTORY_ENTRY_BYTES,
    HISTORY_WRAP,
    history_age,
    is_expired,
)


class TestHistoryAge:
    def test_simple_age(self):
        assert history_age(100, 90) == 10

    def test_zero_age(self):
        assert history_age(5, 5) == 0

    def test_wraparound(self):
        # counter wrapped: id near the top, counter just past zero
        assert history_age(3, HISTORY_WRAP - 2) == 5

    @given(st.integers(0, HISTORY_WRAP - 1), st.integers(0, HISTORY_WRAP - 1))
    def test_age_in_range(self, counter, hist_id):
        assert 0 <= history_age(counter, hist_id) < HISTORY_WRAP


class TestExpiry:
    def test_fresh_entry_valid(self):
        assert not is_expired(100, 95, history_size=10)

    def test_exactly_at_limit_valid(self):
        assert not is_expired(110, 100, history_size=10)

    def test_past_limit_expired(self):
        assert is_expired(111, 100, history_size=10)

    def test_wraparound_expiry(self):
        # paper's second rule: v1 + 2^48 - v2 > l
        assert not is_expired(1, HISTORY_WRAP - 1, history_size=10)
        assert is_expired(20, HISTORY_WRAP - 1, history_size=10)


HISTORY = 8


def _lwh_off():
    return DittoCluster(
        capacity_objects=16, object_bytes=64, seed=1,
        config=DittoConfig(use_lwh=False, history_size=HISTORY),
    )


def _table(cluster):
    """The LWH-off history table, parsed out of node 0's reserve."""
    lay = cluster.layout
    start = lay.table_addr + lay.table_bytes
    raw = cluster.node.read_bytes(start, cluster.history_size * L.SLOT_SIZE)
    return L.Bucket(0, start, raw, cluster.history_size)


class TestHistoryTable:
    """The LWH ablation's direct-mapped history table (Figure 24)."""

    @given(
        st.integers(0, HISTORY_WRAP - 1),
        st.integers(0, 0xFF),
        st.integers(0, (1 << 64) - 1),
    )
    def test_entry_round_trip(self, history_id, bitmap, key_hash):
        raw = L.pack_history_entry(history_id, bitmap, key_hash)
        assert len(raw) == HISTORY_ENTRY_BYTES
        entry = L.Bucket(0, 0, raw, 1)
        assert entry.histories(key_hash) == [0]
        assert entry.histories(key_hash ^ 1) == []
        slot = entry.slot(0)
        assert (slot.history_id, slot.expert_bitmap, slot.key_hash) == (
            history_id, bitmap, key_hash
        )

    def test_table_fits_the_reserve(self):
        cluster = _lwh_off()
        client = cluster.clients[0]
        lay = cluster.layout
        start = lay.table_addr + lay.table_bytes
        heap = cluster.controller.state.next_free  # nothing granted yet
        for key_hash in (0, 7, 8, 2**63 + 5):
            addr = client._history_entry_addr(key_hash)
            assert start <= addr
            assert addr + HISTORY_ENTRY_BYTES <= heap
        assert client._history_entry_addr(3) == client._history_entry_addr(11)

    def test_collisions_overwrite(self):
        cluster = _lwh_off()
        client = cluster.clients[0]
        for i in range(80):
            cluster.engine.run_process(client.set(b"key%d" % i, b"v" * 40))
        table, ids = _table(cluster), []
        for i in range(HISTORY):
            slot = table.slot(i)
            if slot.atomic:
                assert slot.is_history
                assert slot.key_hash % HISTORY == i
                ids.append(slot.history_id)
        counter = cluster.node.read_u64(cluster.layout.history_counter_addr)
        # A forced in-bucket eviction records no entry (nor does LWH's).
        retired = client.evictions - client.forced_bucket_evictions
        assert counter == retired > len(ids) > 0
        # Each id was drawn once; a collision kept the later one.
        assert len(set(ids)) == len(ids) and max(ids) == counter - 1

    @pytest.mark.parametrize(
        "counter, regrets", [(3, 1), (2 + HISTORY, 1), (2 + HISTORY + 1, 0)],
        ids=["fresh", "at-limit", "expired"],
    )
    def test_expired_entry_earns_no_regret(self, counter, regrets):
        cluster = _lwh_off()
        client = cluster.clients[0]
        key_hash = L.stable_hash64(b"gone")
        cluster.node.write_bytes(
            client._history_entry_addr(key_hash),
            L.pack_history_entry(2, 0b01, key_hash),
        )
        cluster.node.write_u64(cluster.layout.history_counter_addr, counter)
        assert cluster.engine.run_process(client.get(b"gone")) is None
        assert client.regrets == regrets
