"""Shard-LRU / KVC / KVC-S: lock-protected LRU lists on disaggregated memory.

The straightforward port of a server-centric cache to DM (paper §3.1 and the
Shard-LRU baseline of §5): a hash index plus per-shard doubly linked LRU
lists in the memory pool, protected by spinlock words that clients acquire
with RDMA_CAS.  Every Get must splice its object to the list head — extra
round trips on the critical path — and lock-fail retries burn the MN NIC's
message budget, which is exactly the collapse Figure 2 shows.

Fidelity note: the lock words and the hash table are real bytes CASed/read
through the verb layer (so contention is real); the *list pointer updates*
are charged as their canonical verb sequence (1 READ + 3 WRITEs for a splice)
while the list order itself is tracked in local mirrors of the remote lists.
This keeps the timing and message counts faithful without a second
doubly-linked-list byte codec; Ditto, the system under study, is fully
byte-level.

Configurations: ``shards=1, backoff_us=0`` is Fig. 2's KVC; ``shards=32,
backoff_us=5`` is KVC-S and the Shard-LRU baseline of Fig. 14.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Generator, List, Optional

from ..core import layout as L
from ..memory import ClientAllocator, Controller, MemoryNode, MemoryPool
from ..memory.node import BLOCK_SIZE
from ..obs.observer import current as obs_current
from ..rdma.params import NetworkParams
from ..rdma.verbs import RdmaEndpoint
from ..sim import CounterSet, Engine
from . import race_table as T

_NODE_BYTES = 16  # prev + next pointers of a list node


class ShardLruCluster:
    """Deployment: hash table + per-shard lock words and LRU lists."""

    def __init__(
        self,
        capacity_objects: int = 4096,
        object_bytes: int = 256,
        num_clients: int = 1,
        shards: int = 32,
        backoff_us: float = 5.0,
        params: Optional[NetworkParams] = None,
        seed: int = 0,
        engine: Optional[Engine] = None,
        segment_bytes: int = 256 * 1024,
    ):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.engine = engine or Engine()
        self.params = params or NetworkParams()
        self.shards = shards
        self.backoff_us = backoff_us
        self.capacity_per_shard = max(capacity_objects // shards, 1)

        # [lock words | list head/tail words | hash table | heap]
        self.locks_addr = 0
        heads_addr = shards * 8
        table_start = heads_addr + shards * _NODE_BYTES
        self.num_buckets = -(-2 * capacity_objects // T.SLOTS_PER_BUCKET)
        self.table_addr = (table_start + 63) // 64 * 64
        self.total_slots = self.num_buckets * T.SLOTS_PER_BUCKET
        reserved = self.table_addr + self.total_slots * T.SLOT

        span = L.object_span(8, object_bytes)
        heap = 2 * capacity_objects * ClientAllocator.blocks_for(span) * BLOCK_SIZE
        heap += 2 * num_clients * segment_bytes + (1 << 20)
        self.node = MemoryNode(self.engine, size=reserved + heap, params=self.params)
        self.pool = MemoryPool([self.node])
        self.controller = Controller(self.node, cores=1, reserve=reserved)
        obs = obs_current()
        self.obs = obs
        self.tracer = (
            obs.bind(self.engine, label="shard-lru") if obs is not None else None
        )
        if self.tracer is not None:
            self.controller.tracer = self.tracer
        self.counters = CounterSet()
        if obs is not None:
            obs.registry.bridge(
                self.counters, component="shard-lru",
                cluster=str(self.tracer.pid) if self.tracer is not None else "0",
            )
        self.segment_bytes = segment_bytes
        # Local mirror of each shard's remote LRU list:
        # key -> (slot_addr, pointer, object_bytes)
        self.lists: List["OrderedDict[bytes, tuple]"] = [
            OrderedDict() for _ in range(shards)
        ]
        self.clients: List[ShardLruClient] = [
            ShardLruClient(self, i) for i in range(num_clients)
        ]

    def lock_addr(self, shard: int) -> int:
        return self.locks_addr + shard * 8

    def bucket_addr(self, bucket: int) -> int:
        return self.table_addr + bucket * T.BUCKET_BYTES

    def shard_of(self, key_hash: int) -> int:
        return (key_hash >> 16) % self.shards

    def add_clients(self, n: int) -> None:
        base = len(self.clients)
        self.clients.extend(ShardLruClient(self, base + i) for i in range(n))

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self.clients)

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self.clients)


class ShardLruClient:
    """One client thread of the Shard-LRU cache."""

    def __init__(self, cluster: ShardLruCluster, client_id: int):
        self.cluster = cluster
        self.client_id = client_id
        self.ep = RdmaEndpoint(
            cluster.engine, cluster.pool, cluster.params,
            counters=cluster.counters, tracer=cluster.tracer,
        )
        self.alloc = ClientAllocator(self.ep, cluster.node, cluster.segment_bytes)
        self.hits = 0
        self.misses = 0
        self.lock_retries = 0
        self.evictions = 0

    # -- remote spinlock ---------------------------------------------------

    def _lock(self, shard: int) -> Generator:
        addr = self.cluster.lock_addr(shard)
        while True:
            old = yield from self.ep.cas(addr, 0, 1)
            if old == 0:
                return
            self.lock_retries += 1
            self.cluster.counters.add("lock_retries")
            if self.cluster.backoff_us:
                yield self.cluster.backoff_us

    def _unlock(self, shard: int) -> Generator:
        yield from self.ep.write(self.cluster.lock_addr(shard), bytes(8))

    def _splice_to_head(self, shard: int, key: bytes) -> Generator:
        """Charge the canonical list-move verbs and mirror the reorder."""
        node = self.cluster.node
        yield from self.ep.charge(node, "read", _NODE_BYTES)
        for _ in range(3):
            yield from self.ep.charge(node, "write", _NODE_BYTES)
        lru = self.cluster.lists[shard]
        if key in lru:
            lru.move_to_end(key)

    # -- hash-table helpers --------------------------------------------------

    def _find(self, key_hash: int, fp: int, key: bytes) -> Generator:
        """Locate the key: (slot_addr, atomic, pointer, nbytes, value) or None."""
        cl = self.cluster
        for bucket in T.buckets_of(key_hash, cl.num_buckets):
            bucket_addr = cl.bucket_addr(bucket)
            raw = yield from self.ep.read(bucket_addr, T.BUCKET_BYTES)
            match = yield from T.find_in_bucket(self.ep, raw, fp, key)
            if match is not None:
                return (bucket_addr + match[0] * T.SLOT,) + match[1:]
        return None

    # -- operations ------------------------------------------------------------

    def get(self, key: bytes) -> Generator:
        cl = self.cluster
        key_hash = L.stable_hash64(key)
        fp = L.fingerprint(key_hash)
        match = yield from self._find(key_hash, fp, key)
        if match is not None:
            shard = cl.shard_of(key_hash)
            yield from self._lock(shard)
            yield from self._splice_to_head(shard, key)
            yield from self._unlock(shard)
            self.hits += 1
            return match[4]
        self.misses += 1
        return None

    def _find_empty(self, key_hash: int) -> Generator:
        """An empty slot address in either candidate bucket, or None.

        Re-reads both buckets — a lock-based port does not carry the
        lookup's snapshot across the shard lock; these READs are part of
        its cost model.
        """
        cl = self.cluster
        for bucket in T.buckets_of(key_hash, cl.num_buckets):
            bucket_addr = cl.bucket_addr(bucket)
            raw = yield from self.ep.read(bucket_addr, T.BUCKET_BYTES)
            i = T.first_empty(raw)
            if i is not None:
                return bucket_addr + i * T.SLOT
        return None

    def set(self, key: bytes, value: bytes) -> Generator:
        cl = self.cluster
        key_hash = L.stable_hash64(key)
        fp = L.fingerprint(key_hash)
        shard = cl.shard_of(key_hash)
        span = L.object_span(len(key), len(value))
        for _attempt in range(16):
            match = yield from self._find(key_hash, fp, key)
            old_pointer = old_bytes = 0
            if match is not None:
                slot_addr, target_atomic, old_pointer, old_bytes, _old = match
            else:
                yield from self._lock(shard)
                while len(cl.lists[shard]) >= cl.capacity_per_shard:
                    yield from self._evict_locked(shard)
                yield from self._unlock(shard)
                slot_addr = yield from self._find_empty(key_hash)
                target_atomic = 0
                if slot_addr is None:
                    raise RuntimeError("Shard-LRU bucket overflow; enlarge table")
            addr = yield from self.alloc.alloc(span)
            yield from self.ep.write(addr, L.encode_object(key, value))
            new_atomic = L.pack_atomic(addr, fp, ClientAllocator.blocks_for(span))
            old = yield from self.ep.cas(slot_addr, target_atomic, new_atomic)
            if old != target_atomic:
                self.alloc.free(addr, span)
                continue
            if old_pointer:
                self.alloc.free(old_pointer, old_bytes)
            yield from self._lock(shard)
            lru = cl.lists[shard]
            lru[key] = (slot_addr, addr, ClientAllocator.blocks_for(span) * BLOCK_SIZE)
            yield from self._splice_to_head(shard, key)
            yield from self._unlock(shard)
            return True
        raise RuntimeError("Shard-LRU set exhausted retries")

    def _evict_locked(self, shard: int) -> Generator:
        """Evict the shard's LRU tail (caller holds the shard lock)."""
        lru = self.cluster.lists[shard]
        victim, (slot_addr, pointer, nbytes) = next(iter(lru.items()))
        # tail pointer READ + victim slot read & CAS + list unlink WRITEs
        yield from self.ep.charge(self.cluster.node, "read", _NODE_BYTES)
        raw = yield from self.ep.read(slot_addr, 8)
        (atomic,) = struct.unpack("<Q", raw)
        old = yield from self.ep.cas(slot_addr, atomic, 0)
        for _ in range(2):
            yield from self.ep.charge(self.cluster.node, "write", _NODE_BYTES)
        del lru[victim]
        if old == atomic:
            self.alloc.free(pointer, nbytes)
        self.evictions += 1
