"""A plain key-value *store* on disaggregated memory (the "KVS" of Fig. 2).

FUSEE-style: a lock-free hash index accessed with one-sided verbs, no caching
metadata, no eviction.  It marks the throughput/latency budget that caching
data structures eat into — the motivation for Ditto's client-centric design.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core import layout as L
from ..memory import ClientAllocator
from . import race_table as T
from .deployment import DmDeployment


class DmKvsClient:
    """One KVS client thread: Get = 2 READs, Set = READ + WRITE + CAS."""

    def __init__(self, cluster: DmKvsCluster, client_id: int):
        self.cluster = cluster
        self.client_id = client_id
        self.ep = cluster.make_endpoint()
        self.alloc = ClientAllocator(self.ep, cluster.node, T.SEGMENT_BYTES)
        self.hits = 0
        self.misses = 0

    def get(self, key: bytes) -> Generator:
        key_hash = L.stable_hash64(key)
        match = yield from self.cluster.table.find(
            self.ep, key_hash, L.fingerprint(key_hash), key
        )
        if match is not None:
            self.hits += 1
            return match[4]
        self.misses += 1
        return None

    def set(self, key: bytes, value: bytes) -> Generator:
        table = self.cluster.table
        key_hash = L.stable_hash64(key)
        fp = L.fingerprint(key_hash)
        span = L.object_span(len(key), len(value))
        for _attempt in range(16):
            target_addr: Optional[int] = None
            target_atomic = 0
            old_pointer = old_bytes = 0
            empty_addr: Optional[int] = None
            for bucket_addr in table.buckets(key_hash):
                raw = yield from self.ep.read(bucket_addr, T.BUCKET_BYTES)
                match = yield from T.find_in_bucket(self.ep, raw, fp, key)
                if match is not None:
                    i, atomic, pointer, nbytes, _old = match
                    target_addr = bucket_addr + i * T.SLOT
                    target_atomic = atomic
                    old_pointer, old_bytes = pointer, nbytes
                    break
                if empty_addr is None:
                    i = T.first_empty(raw)
                    if i is not None:
                        empty_addr = bucket_addr + i * T.SLOT
            if target_addr is None:
                target_addr = empty_addr
            if target_addr is None:
                raise RuntimeError("KVS bucket overflow; size the table larger")
            addr = yield from self.alloc.alloc(span)
            yield from self.ep.write(addr, L.encode_object(key, value))
            new_atomic = L.pack_atomic(addr, fp, ClientAllocator.blocks_for(span))
            old = yield from self.ep.cas(target_addr, target_atomic, new_atomic)
            if old == target_atomic:
                if old_pointer:
                    self.alloc.free(old_pointer, old_bytes)
                return True
            self.alloc.free(addr, span)
        raise RuntimeError("KVS set exhausted retries")


class DmKvsCluster(DmDeployment):
    """Deployment wiring for the plain KVS: the table at address 0, then
    the heap."""

    label = "kvs"
    client_class = DmKvsClient

    def __init__(
        self,
        capacity_objects: int = 4096,
        object_bytes: int = 256,
        num_clients: int = 1,
    ):
        self.table = T.RaceTable(0, capacity_objects)
        super().__init__(
            self.table.end + T.heap_bytes(capacity_objects, object_bytes, num_clients),
            reserve=self.table.end,
        )
        self.add_clients(num_clients)
