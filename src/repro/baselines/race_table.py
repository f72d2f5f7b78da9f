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
from ..memory.node import BLOCK_SIZE

SLOT = 8  # atomic field only
SLOTS_PER_BUCKET = 8
BUCKET_BYTES = SLOTS_PER_BUCKET * SLOT
#: Heap segment a KVS or Shard-LRU client's allocator asks for per RPC.
SEGMENT_BYTES = 256 * 1024


def buckets_of(key_hash: int, num_buckets: int):
    """Two-choice hashing: a key lives in one of two buckets."""
    first = key_hash % num_buckets
    second = (key_hash >> 24) % num_buckets
    if second == first:
        second = (first + 1) % num_buckets
    return first, second


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
