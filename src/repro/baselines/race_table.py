"""The bare hash index the KVS and Shard-LRU baselines share.

RACE/FUSEE-style: buckets of 8-byte atomic slots (``pointer | fp | size``,
zero = empty), two candidate buckets per key, a fingerprint match confirmed
by reading the object.  No caching metadata lives here — that is the point
of comparison with Ditto's sample-friendly table.
"""

from __future__ import annotations

import struct
from typing import Generator, Optional

from ..core import layout as L
from ..memory import ClientAllocator
from ..memory.node import BLOCK_SIZE

SLOT = 8  # atomic field only
SLOTS_PER_BUCKET = 8
BUCKET_BYTES = SLOTS_PER_BUCKET * SLOT
#: Heap segment a KVS or Shard-LRU client's allocator asks for per RPC.
SEGMENT_BYTES = 256 * 1024


class RaceTable:
    """Where the index sits: slots for twice ``capacity_objects`` keys,
    from the first 64-byte boundary at or after ``start`` up to ``end``."""

    def __init__(self, start: int, capacity_objects: int):
        self.num_buckets = -(-2 * capacity_objects // SLOTS_PER_BUCKET)
        self.table_addr = (start + 63) // 64 * 64
        self.end = self.table_addr + self.num_buckets * BUCKET_BYTES

    def buckets(self, key_hash: int):
        """Two-choice hashing: the addresses of the key's two buckets."""
        n = self.num_buckets
        first = key_hash % n
        second = (key_hash >> 24) % n
        if second == first:
            second = (first + 1) % n
        return (self.table_addr + first * BUCKET_BYTES,
                self.table_addr + second * BUCKET_BYTES)

    def find(self, ep, key_hash: int, fp: int, key: bytes) -> Generator:
        """READ the key's buckets in turn until one holds it.

        Returns ``(slot_addr, atomic, pointer, nbytes, value)`` or None.
        """
        for bucket_addr in self.buckets(key_hash):
            raw = yield from ep.read(bucket_addr, BUCKET_BYTES)
            match = yield from find_in_bucket(ep, raw, fp, key)
            if match is not None:
                return (bucket_addr + match[0] * SLOT,) + match[1:]
        return None


def heap_bytes(capacity_objects: int, object_bytes: int, num_clients: int) -> int:
    """Heap behind the table: room for twice ``capacity_objects`` objects,
    two allocator segments per client and 1 MiB of slack."""
    span = L.object_span(8, object_bytes)
    heap = 2 * capacity_objects * ClientAllocator.blocks_for(span) * BLOCK_SIZE
    return heap + 2 * num_clients * SEGMENT_BYTES + (1 << 20)


def first_empty(raw: bytes) -> Optional[int]:
    """Index of the bucket's first empty slot, or None."""
    for i, (atomic,) in enumerate(struct.iter_unpack("<Q", raw)):
        if atomic == 0:
            return i
    return None


def find_in_bucket(ep, raw: bytes, fp: int, key: bytes) -> Generator:
    """Match ``fp`` in a fetched bucket, then READ each candidate's object.

    Returns ``(slot_index, atomic, pointer, nbytes, value)`` or None.
    """
    for i, (atomic,) in enumerate(struct.iter_unpack("<Q", raw)):
        if atomic == 0:
            continue
        pointer, slot_fp, size = L.unpack_atomic(atomic)
        if slot_fp != fp:
            continue
        nbytes = size * BLOCK_SIZE
        obj = yield from ep.read(pointer, nbytes)
        try:
            found, value, _ext = L.decode_object(obj)
        except (ValueError, struct.error):
            continue  # torn block: a concurrent rewrite won
        if found == key:
            return i, atomic, pointer, nbytes, value
    return None
