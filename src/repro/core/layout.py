"""Byte layouts of the sample-friendly hash table (paper Figs. 7 and 9).

Each hash-table slot is 40 bytes:

=======  ====  =====================================================
offset   size  field
=======  ====  =====================================================
0        8     **atomic field**, CASed as one u64:
               bits 0-47 pointer, 48-55 fp, 56-63 size (64 B blocks)
8        8     insert_ts   (stateless; expert bitmap for history entries)
16       8     last_ts     (stateless)
24       8     freq        (stateful, updated with FAA)
32       8     key hash    (for regret matching against history entries)
=======  ====  =====================================================

The two stateless timestamps are contiguous so one RDMA_WRITE updates both;
``freq`` sits on its own word so RDMA_FAA can bump it.  A slot whose atomic
field is zero is empty.  A slot whose size byte is ``0xFF`` is an *embedded
history entry*: the pointer field then carries a 48-bit history ID and the
``insert_ts`` word carries the expert bitmap (Fig. 9).

A bucket or sample READ stays the bytes it returned (:class:`Bucket`): the
client classifies slots with byte operations on them and parses into a
:class:`Slot` only the one or two slots it acts on.

Objects in the heap are ``8-byte header | extension metadata | key | value``;
the header records the three lengths.  Object sizes are measured in 64-byte
blocks, matching the slot's one-byte size field (max 254 blocks; 255 = 0xFF
is the history tag and 0 means empty).
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache, partial
from itertools import compress
from typing import List, Optional, Sequence, Tuple

from ..memory.node import BLOCK_SIZE
from .history import HISTORY_WRAP

SLOT_SIZE = 40
WORDS_PER_SLOT = 5
ATOMIC_OFF = 0
INSERT_TS_OFF = 8
LAST_TS_OFF = 16
FREQ_OFF = 24
HASH_OFF = 32
#: insert_ts + last_ts: the stateless group updated by a single WRITE.
STATELESS_OFF = INSERT_TS_OFF
STATELESS_SIZE = 16

POINTER_BITS = 48
POINTER_MASK = (1 << POINTER_BITS) - 1
HISTORY_SIZE_TAG = 0xFF
MAX_SIZE_BLOCKS = 0xFE

_HEADER = struct.Struct("<HIH")  # key length, value length, extension length
OBJECT_HEADER_SIZE = _HEADER.size
_U64 = struct.Struct("<Q")
_SLOT_WORDS = struct.Struct("<5Q")
_ACCESS = struct.Struct("<4Q")  # atomic, insert_ts, last_ts, freq
#: The little-endian atomic word's fp and size bytes, as slot offsets.
_FP_BYTE, _SIZE_BYTE = ATOMIC_OFF + 6, ATOMIC_OFF + 7
#: Whether an atomic word is an object's: neither zero (empty) nor tagged
#: ``HISTORY_SIZE_TAG`` in its top byte (a history entry).
_OBJECT_ATOMIC = range(1, HISTORY_SIZE_TAG << 56).__contains__


def stable_hash64(key: bytes) -> int:
    """Deterministic 64-bit key hash (stable across runs and processes)."""
    return _U64.unpack(hashlib.blake2b(key, digest_size=8).digest())[0]


def fingerprint(key_hash: int) -> int:
    """1-byte fp stored in the atomic field to filter slot candidates."""
    fp = (key_hash >> 48) & 0xFF
    return fp or 1  # never 0, so a non-empty slot has a non-zero atomic field


def pack_atomic(pointer: int, fp: int, size_blocks: int) -> int:
    if pointer & ~POINTER_MASK:
        raise ValueError(f"pointer {pointer:#x} exceeds 48 bits")
    if not 0 <= fp <= 0xFF or not 0 <= size_blocks <= 0xFF:
        raise ValueError("fp and size must fit one byte")
    return pointer | (fp << 48) | (size_blocks << 56)


def unpack_atomic(value: int):
    """Returns (pointer, fp, size_blocks)."""
    return value & POINTER_MASK, (value >> 48) & 0xFF, (value >> 56) & 0xFF


def pack_history_atomic(history_id: int) -> int:
    """Atomic field of an embedded history entry (size byte = 0xFF)."""
    return pack_atomic(history_id & POINTER_MASK, 0, HISTORY_SIZE_TAG)


class Slot:
    """A parsed hash-table slot (either a cached object or a history entry).

    Built only for a candidate the client acts on, it stores what the hot
    paths read (the pointer and size are read to READ, CAS, free, release)
    and derives the atomic word's other fields on access.
    """

    __slots__ = (
        "index", "addr", "atomic", "insert_ts", "last_ts", "freq", "key_hash",
        "pointer", "object_bytes",
    )

    def __init__(self, index: int, addr: int, atomic: int, insert_ts: int,
                 last_ts: int, freq: int, key_hash: int):
        self.index = index
        self.addr = addr
        self.atomic = atomic
        self.insert_ts = insert_ts
        self.last_ts = last_ts
        self.freq = freq
        self.key_hash = key_hash
        self.pointer = atomic & POINTER_MASK
        self.object_bytes = (atomic >> 56) * BLOCK_SIZE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "empty" if self.is_empty else ("history" if self.is_history else "object")
        return f"Slot(index={self.index}, kind={kind}, atomic={self.atomic:#x})"

    # Derived from the atomic word on access.
    fp = property(lambda self: (self.atomic >> 48) & 0xFF)
    size_blocks = property(lambda self: self.atomic >> 56)
    is_empty = property(lambda self: self.atomic == 0)
    is_history = property(lambda self: self.atomic >> 56 == HISTORY_SIZE_TAG)
    is_object = property(lambda self: _OBJECT_ATOMIC(self.atomic))
    history_id = property(lambda self: self.pointer)
    #: History entries reuse the insert_ts word for the expert bitmap.
    expert_bitmap = property(lambda self: self.insert_ts)


def parse_slot(index: int, addr: int, raw: bytes, offset: int = 0) -> Slot:
    return Slot(index, addr, *_SLOT_WORDS.unpack_from(raw, offset))


@lru_cache(maxsize=None)
def _column_unpacker(count: int, word: int):
    """``unpack_from`` of word ``word`` (0-4) of ``count`` consecutive slots."""
    unpack_from = struct.Struct("<" + "Q32x" * (count - 1) + "Q").unpack_from
    return partial(unpack_from, offset=8 * word)


class Bucket:
    """The slots one READ brought back, kept as the bytes it returned.

    A bucket READ or an eviction sample delivers 8 or K slots of which the
    client acts on one or two, so the scans below classify slots with C
    operations on ``raw`` (``bytes.find`` over the fp bytes or the hash
    words, one strided unpack of the atomic words), exact on any bytes, and
    answer with *positions*; :meth:`slot` and :meth:`access_info` unpack
    only the slot a candidate needs.  Position ``i`` is the ``i``-th 40
    bytes of ``raw``: table slot ``base_index + i`` at ``base_addr + i *
    SLOT_SIZE``, unless ``indices`` names scattered table slots (the no-SFHT
    sampler), which then lie relative to the same base.
    """

    __slots__ = ("base_index", "base_addr", "count", "raw", "indices")

    def __init__(self, base_index: int, base_addr: int, raw: bytes, count: int,
                 indices: Optional[Sequence[int]] = None):
        self.base_index = base_index
        self.base_addr = base_addr
        self.count = count
        self.raw = raw
        self.indices = indices

    def addr(self, i: int) -> int:
        if self.indices is not None:
            i = self.indices[i] - self.base_index
        return self.base_addr + i * SLOT_SIZE

    def slot(self, i: int) -> Slot:
        if self.indices is None:
            index, addr = self.base_index + i, self.base_addr + i * SLOT_SIZE
        else:
            index = self.indices[i]
            addr = self.base_addr + (index - self.base_index) * SLOT_SIZE
        return Slot(index, addr, *_SLOT_WORDS.unpack_from(self.raw, i * SLOT_SIZE))

    def column(self, word: int) -> Tuple[int, ...]:
        """Word ``word`` of every slot, by position: one strided unpack."""
        return _column_unpacker(self.count, word)(self.raw)

    def matches(self, fp: int) -> List[int]:
        """Positions of object slots whose fingerprint is ``fp``."""
        raw, found = self.raw, []
        fps = raw[_FP_BYTE::SLOT_SIZE]
        i = fps.find(fp)
        while i >= 0:
            # Only an fp byte of 0 can sit in an empty slot's atomic word.
            if raw[i * SLOT_SIZE + _SIZE_BYTE] != HISTORY_SIZE_TAG and (
                fp or self.column(0)[i]
            ):
                found.append(i)
            i = fps.find(fp, i + 1)
        return found

    def objects(self) -> List[int]:
        """Positions of slots that hold a cached object."""
        atomics = _column_unpacker(self.count, 0)(self.raw)
        return list(compress(range(self.count), map(_OBJECT_ATOMIC, atomics)))

    def insert_position(self, counter: int) -> Optional[int]:
        """Where a fresh insert goes: the first empty slot, else the oldest
        history entry against the history ``counter``, else None.

        "Oldest" is also the paper's "most expired first": expiry is an age
        threshold, so when any entry has expired the oldest one has too.
        """
        atomics = _column_unpacker(self.count, 0)(self.raw)
        if 0 in atomics:
            return atomics.index(0)
        best, best_age = None, -1
        for i, atomic in enumerate(atomics):
            if atomic >> 56 == HISTORY_SIZE_TAG:
                # ``history_age`` of the entry's ID, inline.
                age = (counter - (atomic & POINTER_MASK)) % HISTORY_WRAP
                if age > best_age:
                    best, best_age = i, age
        return best

    def histories(self, key_hash: int) -> List[int]:
        """Positions of history entries recorded for ``key_hash``."""
        raw, needle, found = self.raw, _U64.pack(key_hash), []
        at = raw.find(needle, HASH_OFF)
        while at >= 0:
            i, skew = divmod(at - HASH_OFF, SLOT_SIZE)  # skew: not a hash word
            if not skew and raw[at - HASH_OFF + _SIZE_BYTE] == HISTORY_SIZE_TAG:
                found.append(i)
            at = raw.find(needle, at + SLOT_SIZE - skew)
        return found

    def half_installed(self) -> List[int]:
        """Positions of object slots whose ``insert_ts``, ``last_ts`` and key
        hash are all zero: the insert's metadata WRITE has not landed."""
        insert_ts, last_ts, hashes = self.column(1), self.column(2), self.column(4)
        return [
            i for i in self.objects()
            if not (insert_ts[i] or last_ts[i] or hashes[i])
        ]

    def access_info(self, i: int) -> Tuple[int, int, int, int]:
        """``(object_bytes, insert_ts, last_ts, freq)`` of position ``i``."""
        atomic, insert_ts, last_ts, freq = _ACCESS.unpack_from(self.raw, i * SLOT_SIZE)
        return (atomic >> 56) * BLOCK_SIZE, insert_ts, last_ts, freq


def pack_metadata(insert_ts: int, last_ts: int, freq: int, key_hash: int) -> bytes:
    """The 32-byte metadata field written on insert (one RDMA_WRITE)."""
    return struct.pack("<QQQQ", insert_ts, last_ts, freq, key_hash)


def pack_history_entry(history_id: int, expert_bitmap: int, key_hash: int) -> bytes:
    """A whole history slot, as the LWH ablation WRITEs it to its table."""
    return _SLOT_WORDS.pack(
        pack_history_atomic(history_id), expert_bitmap, 0, 0, key_hash
    )


def encode_object(key: bytes, value: bytes, ext: bytes = b"") -> bytes:
    if len(key) > 0xFFFF or len(ext) > 0xFFFF or len(value) > 0xFFFFFFFF:
        raise ValueError("object component too large")
    return _HEADER.pack(len(key), len(value), len(ext)) + ext + key + value


def decode_object(raw: bytes):
    """Returns (key, value, ext); ``raw``, a READ's ``bytes``, may include
    trailing block padding."""
    klen, vlen, elen = _HEADER.unpack_from(raw)
    key_at = OBJECT_HEADER_SIZE + elen
    value_at = key_at + klen
    key, value = raw[key_at:value_at], raw[value_at : value_at + vlen]
    if len(key) != klen or len(value) != vlen:
        raise ValueError("truncated object")
    return key, value, raw[OBJECT_HEADER_SIZE:key_at]


def object_span(key_len: int, value_len: int, ext_len: int = 0) -> int:
    """Total heap bytes for an object before block rounding."""
    return OBJECT_HEADER_SIZE + ext_len + key_len + value_len


class DittoLayout:
    """Address map of Ditto's fixed structures at the base of a memory node.

    ``[history counter | expert weights | hash table | heap ...]``, with the
    LWH ablation's history table between the hash table and the heap.
    """

    SLOTS_PER_BUCKET = 8
    WEIGHTS_SLOTS = 16  # reserved space for up to 16 expert weights

    def __init__(self, base: int, num_buckets: int, slots_per_bucket: int = 0):
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        self.base = base
        self.num_buckets = num_buckets
        self.slots_per_bucket = slots_per_bucket or self.SLOTS_PER_BUCKET
        self.history_counter_addr = base
        self.weights_addr = base + 8
        table_start = base + 8 + 8 * self.WEIGHTS_SLOTS
        self.table_addr = (table_start + 63) // 64 * 64  # cache-line align
        self.total_slots = self.num_buckets * self.slots_per_bucket

    @property
    def table_bytes(self) -> int:
        return self.total_slots * SLOT_SIZE

    @property
    def reserved_bytes(self) -> int:
        """Bytes at the node base not available to the heap allocator."""
        return (self.table_addr + self.table_bytes) - self.base

    def bucket_index(self, key_hash: int) -> int:
        return key_hash % self.num_buckets

    def bucket_addr(self, bucket: int) -> int:
        return self.table_addr + bucket * self.slots_per_bucket * SLOT_SIZE

    def slot_addr(self, slot_index: int) -> int:
        if not 0 <= slot_index < self.total_slots:
            raise IndexError(f"slot index {slot_index} out of range")
        return self.table_addr + slot_index * SLOT_SIZE
