"""Unit tests for the sample-friendly hash table byte layouts (Figs. 7, 9)."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import layout as L
from repro.core.client import _COLUMN_WORD
from repro.core.history import history_age, is_expired
from repro.memory.node import BLOCK_SIZE


class TestAtomicField:
    def test_pack_unpack_roundtrip(self):
        atomic = L.pack_atomic(0x123456789ABC, 0x7F, 3)
        assert L.unpack_atomic(atomic) == (0x123456789ABC, 0x7F, 3)

    def test_fits_in_64_bits(self):
        atomic = L.pack_atomic(L.POINTER_MASK, 0xFF, 0xFF)
        assert atomic < (1 << 64)

    def test_pointer_over_48_bits_rejected(self):
        with pytest.raises(ValueError):
            L.pack_atomic(1 << 48, 0, 1)

    def test_bad_fp_or_size_rejected(self):
        with pytest.raises(ValueError):
            L.pack_atomic(0, 256, 1)
        with pytest.raises(ValueError):
            L.pack_atomic(0, 0, 300)

    @given(
        st.integers(0, L.POINTER_MASK),
        st.integers(0, 255),
        st.integers(0, 255),
    )
    def test_roundtrip_arbitrary(self, pointer, fp, size):
        assert L.unpack_atomic(L.pack_atomic(pointer, fp, size)) == (pointer, fp, size)


class TestFingerprint:
    def test_never_zero(self):
        assert L.fingerprint(0) != 0
        for h in range(0, 1 << 16, 997):
            assert 1 <= L.fingerprint(h) <= 255

    def test_derived_from_hash_high_bits(self):
        assert L.fingerprint(0xAB << 48) == 0xAB


class TestStableHash:
    def test_deterministic(self):
        assert L.stable_hash64(b"key") == L.stable_hash64(b"key")

    def test_distinct_keys_differ(self):
        hashes = {L.stable_hash64(b"key%d" % i) for i in range(1000)}
        assert len(hashes) == 1000

    def test_64_bit_range(self):
        assert 0 <= L.stable_hash64(b"x") < (1 << 64)


class TestSlot:
    def _slot(self, atomic, insert_ts=0, last_ts=0, freq=0, key_hash=0):
        return L.Slot(0, 0, atomic, insert_ts, last_ts, freq, key_hash)

    def test_empty(self):
        slot = self._slot(0)
        assert slot.is_empty and not slot.is_object and not slot.is_history

    def test_object(self):
        slot = self._slot(L.pack_atomic(64, 7, 2))
        assert slot.is_object
        assert slot.pointer == 64
        assert slot.fp == 7
        assert slot.size_blocks == 2
        assert slot.object_bytes == 128

    def test_history_entry(self):
        atomic = L.pack_history_atomic(12345)
        slot = self._slot(atomic, insert_ts=0b101)
        assert slot.is_history and not slot.is_object
        assert slot.history_id == 12345
        assert slot.expert_bitmap == 0b101

    def test_history_size_tag_is_0xff(self):
        _p, _fp, size = L.unpack_atomic(L.pack_history_atomic(1))
        assert size == L.HISTORY_SIZE_TAG == 0xFF

    def test_parse_slot_layout_is_40_bytes(self):
        raw = struct.pack("<QQQQQ", L.pack_atomic(64, 1, 1), 10, 20, 30, 40)
        assert len(raw) == L.SLOT_SIZE == 40
        slot = L.parse_slot(5, 1000, raw)
        assert (slot.index, slot.addr) == (5, 1000)
        assert (slot.insert_ts, slot.last_ts, slot.freq, slot.key_hash) == (10, 20, 30, 40)


U64 = st.integers(0, (1 << 64) - 1)
#: Few distinct values, so fingerprints and key hashes collide within a bucket.
SMALL = st.sampled_from([0, 1, 2, 0xFF])
#: History IDs on both sides of the 48-bit wrap.
HISTORY_IDS = st.sampled_from([0, 1, 5, 40, L.POINTER_MASK - 3, L.POINTER_MASK])
ATOMICS = st.one_of(
    st.just(0),
    HISTORY_IDS.map(L.pack_history_atomic),
    st.builds(L.pack_atomic, st.integers(0, L.POINTER_MASK), SMALL, st.integers(0, 255)),
    U64,
)
SLOT_WORDS = st.tuples(ATOMICS, st.one_of(SMALL, U64), st.one_of(SMALL, U64), U64, st.one_of(SMALL, U64))


class TestBucket:
    """``Bucket`` scans the bytes its READ returned and unpacks only the
    slots asked for; the oracle classifies every slot through ``parse_slot``
    the way the client did when it built a Slot per slot, and checks the
    fields a ``Slot`` derives from its atomic word against
    ``unpack_atomic``."""

    #: The ``Slot`` fields the client reads that are derived on access,
    #: not stored in ``__slots__``.
    DERIVED = (
        "fp", "size_blocks", "object_bytes", "is_empty", "is_history",
        "is_object", "history_id", "expert_bitmap",
    )

    @given(
        st.lists(SLOT_WORDS, min_size=1, max_size=12),
        SMALL,
        SMALL,
        st.sampled_from([0, 3, 50, L.POINTER_MASK]),
        st.integers(1, 64),
    )
    def test_scans_agree_with_parse_slot(self, rows, fp, key_hash, counter, history_size):
        raw = b"".join(struct.pack("<5Q", *row) for row in rows)
        bucket = L.Bucket(10, 4000, raw, len(rows))
        slots = [
            L.parse_slot(10 + i, 4000 + i * L.SLOT_SIZE, raw, i * L.SLOT_SIZE)
            for i in range(len(rows))
        ]

        def same(a, b):
            return all(
                getattr(a, name) == getattr(b, name) for name in L.Slot.__slots__
            )

        assert bucket.count == len(rows)
        for i, slot in enumerate(slots):
            assert same(bucket.slot(i), slot)
            got = bucket.slot(i)
            assert all(
                getattr(got, name) == getattr(slot, name) for name in self.DERIVED
            )
            atomic = rows[i][0]
            pointer, fp_byte, size = L.unpack_atomic(atomic)
            assert (got.fp, got.size_blocks, got.object_bytes) == (
                fp_byte, size, size * BLOCK_SIZE
            )
            assert (got.is_empty, got.is_history, got.is_object) == (
                atomic == 0, size == 0xFF, atomic != 0 and size != 0xFF
            )
            assert (got.history_id, got.expert_bitmap) == (pointer, rows[i][1])
            assert bucket.addr(i) == slot.addr
            assert bucket.access_info(i) == (
                slot.object_bytes, slot.insert_ts, slot.last_ts, slot.freq
            )
            assert slot.is_object == (not slot.is_empty and not slot.is_history)
        assert bucket.matches(fp) == [
            i for i, s in enumerate(slots) if s.is_object and s.fp == fp
        ]
        assert bucket.objects() == [i for i, s in enumerate(slots) if s.is_object]
        assert bucket.histories(key_hash) == [
            i for i, s in enumerate(slots) if s.is_history and s.key_hash == key_hash
        ]
        assert bucket.half_installed() == [
            i
            for i, s in enumerate(slots)
            if s.is_object and s.key_hash == 0 and s.insert_ts == 0 and s.last_ts == 0
        ]

        # The insert pick as the client wrote it: an empty slot, else the
        # most-expired history entry, else the oldest one.
        def pick():
            empty = next((s for s in slots if s.is_empty), None)
            if empty is not None:
                return empty
            histories = [s for s in slots if s.is_history]
            if not histories:
                return None
            expired = [
                s for s in histories if is_expired(counter, s.history_id, history_size)
            ]
            return max(
                expired or histories, key=lambda s: history_age(counter, s.history_id)
            )

        expected = pick()
        position = bucket.insert_position(counter)
        if expected is None:
            assert position is None
        else:
            assert position == expected.index - 10

    @given(st.lists(st.tuples(st.integers(0, 999), SLOT_WORDS), min_size=1, max_size=6))
    def test_scattered_slots_keep_their_own_index_and_address(self, picks):
        raw = b"".join(struct.pack("<5Q", *row) for _index, row in picks)
        indices = [index for index, _row in picks]
        bucket = L.Bucket(0, 640, raw, len(picks), indices)
        for i, (index, row) in enumerate(picks):
            slot = bucket.slot(i)
            assert (slot.index, slot.addr) == (index, 640 + index * L.SLOT_SIZE)
            assert bucket.addr(i) == slot.addr
            assert (slot.atomic, slot.key_hash) == (row[0], row[4])

    @given(
        st.lists(SLOT_WORDS, min_size=1, max_size=12),
        st.sampled_from(sorted(_COLUMN_WORD)),
        st.booleans(),
    )
    def test_column_reader_agrees_with_parse_slot(self, rows, name, scattered):
        """The strided reader the column experts choose victims on returns,
        per position, the word ``parse_slot`` names ``name``, for every
        width and for the no-SFHT sampler's scattered slots."""
        raw = b"".join(struct.pack("<5Q", *row) for row in rows)
        indices = list(range(len(rows) * 7, 0, -7)) if scattered else None
        bucket = L.Bucket(0, 640, raw, len(rows), indices)
        assert bucket.column(_COLUMN_WORD[name]) == tuple(
            getattr(L.parse_slot(0, 0, raw, i * L.SLOT_SIZE), name)
            for i in range(len(rows))
        )


class TestObjectCodec:
    def test_roundtrip(self):
        raw = L.encode_object(b"key", b"value", b"ext")
        assert L.decode_object(raw) == (b"key", b"value", b"ext")

    def test_roundtrip_with_padding(self):
        raw = L.encode_object(b"k", b"v") + bytes(64)
        assert L.decode_object(raw) == (b"k", b"v", b"")

    def test_truncated_raises(self):
        raw = L.encode_object(b"key", b"value")
        with pytest.raises(ValueError):
            L.decode_object(raw[:-2])

    def test_object_span(self):
        assert L.object_span(3, 5, 0) == L.OBJECT_HEADER_SIZE + 8
        assert L.object_span(3, 5, 16) == L.OBJECT_HEADER_SIZE + 24

    def test_oversized_components_rejected(self):
        with pytest.raises(ValueError):
            L.encode_object(b"x" * 70000, b"")

    @given(st.binary(max_size=64), st.binary(max_size=256), st.binary(max_size=32))
    def test_roundtrip_arbitrary(self, key, value, ext):
        assert L.decode_object(L.encode_object(key, value, ext)) == (key, value, ext)


class TestDittoLayout:
    def test_geometry(self):
        lay = L.DittoLayout(base=0, num_buckets=16)
        assert lay.total_slots == 16 * 8
        assert lay.table_bytes == 16 * 8 * 40
        assert lay.table_addr % 64 == 0
        assert lay.history_counter_addr == 0

    def test_slot_addresses_contiguous(self):
        lay = L.DittoLayout(base=0, num_buckets=4)
        assert lay.slot_addr(1) - lay.slot_addr(0) == L.SLOT_SIZE
        assert lay.bucket_addr(1) - lay.bucket_addr(0) == 8 * L.SLOT_SIZE

    def test_bucket_index_in_range(self):
        lay = L.DittoLayout(base=0, num_buckets=7)
        for h in (0, 6, 7, 12345678901234567):
            assert 0 <= lay.bucket_index(h) < 7

    def test_slot_index_out_of_range(self):
        lay = L.DittoLayout(base=0, num_buckets=2)
        with pytest.raises(IndexError):
            lay.slot_addr(lay.total_slots)

    def test_reserved_covers_table(self):
        lay = L.DittoLayout(base=0, num_buckets=8)
        assert lay.reserved_bytes >= lay.table_bytes

    def test_metadata_overhead_is_40_bytes_per_slot(self):
        # Paper §4.4: 8-byte atomic field + 32 bytes of access information.
        assert L.SLOT_SIZE == 40
        assert L.STATELESS_OFF == 8 and L.STATELESS_SIZE == 16
        assert L.FREQ_OFF == 24 and L.HASH_OFF == 32

    def test_rejects_zero_buckets(self):
        with pytest.raises(ValueError):
            L.DittoLayout(base=0, num_buckets=0)
