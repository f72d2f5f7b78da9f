"""A plain key-value *store* on disaggregated memory (the "KVS" of Fig. 2).

FUSEE-style: a lock-free hash index accessed with one-sided verbs, no caching
metadata, no eviction.  It marks the throughput/latency budget that caching
data structures eat into — the motivation for Ditto's client-centric design.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..memory import ClientAllocator, Controller, MemoryNode, MemoryPool
from ..memory.node import BLOCK_SIZE
from ..obs.observer import current as obs_current
from ..rdma.params import NetworkParams
from ..rdma.verbs import RdmaEndpoint
from ..sim import CounterSet, Engine
from ..core import layout as L
from . import race_table as T


class KvsLayout:
    """Bucketed table of bare 8-byte atomic slots."""

    def __init__(self, base: int, num_buckets: int):
        self.base = base
        self.num_buckets = num_buckets
        self.table_addr = (base + 63) // 64 * 64
        self.total_slots = num_buckets * T.SLOTS_PER_BUCKET

    @property
    def reserved_bytes(self) -> int:
        return (self.table_addr + self.total_slots * T.SLOT) - self.base

    def bucket_addr(self, bucket: int) -> int:
        return self.table_addr + bucket * T.BUCKET_BYTES


class DmKvsCluster:
    """Deployment wiring for the plain KVS."""

    def __init__(
        self,
        capacity_objects: int = 4096,
        object_bytes: int = 256,
        num_clients: int = 1,
    ):
        self.engine = Engine()
        self.params = NetworkParams()
        num_buckets = -(-2 * capacity_objects // T.SLOTS_PER_BUCKET)
        self.layout = KvsLayout(0, num_buckets)
        span = L.object_span(8, object_bytes)
        heap = 2 * capacity_objects * ClientAllocator.blocks_for(span) * BLOCK_SIZE
        heap += 2 * num_clients * T.SEGMENT_BYTES + (1 << 20)
        self.node = MemoryNode(
            self.engine, size=self.layout.reserved_bytes + heap, params=self.params
        )
        self.pool = MemoryPool([self.node])
        self.controller = Controller(
            self.node, cores=1, reserve=self.layout.reserved_bytes
        )
        obs = obs_current()
        self.obs = obs
        self.tracer = obs.bind(self.engine, label="kvs") if obs is not None else None
        if self.tracer is not None:
            self.controller.tracer = self.tracer
        self.counters = CounterSet()
        if obs is not None:
            obs.registry.bridge(
                self.counters, component="kvs",
                cluster=str(self.tracer.pid) if self.tracer is not None else "0",
            )
        self.clients: List[DmKvsClient] = [
            DmKvsClient(self, i) for i in range(num_clients)
        ]

    def add_clients(self, n: int) -> None:
        base = len(self.clients)
        self.clients.extend(DmKvsClient(self, base + i) for i in range(n))


class DmKvsClient:
    """One KVS client thread: Get = 2 READs, Set = READ + WRITE + CAS."""

    def __init__(self, cluster: DmKvsCluster, client_id: int):
        self.cluster = cluster
        self.client_id = client_id
        self.ep = RdmaEndpoint(
            cluster.engine, cluster.pool, cluster.params,
            counters=cluster.counters, tracer=cluster.tracer,
        )
        self.alloc = ClientAllocator(self.ep, cluster.node, T.SEGMENT_BYTES)
        self.hits = 0
        self.misses = 0

    def get(self, key: bytes) -> Generator:
        lay = self.cluster.layout
        key_hash = L.stable_hash64(key)
        fp = L.fingerprint(key_hash)
        for bucket in T.buckets_of(key_hash, lay.num_buckets):
            raw = yield from self.ep.read(lay.bucket_addr(bucket), T.BUCKET_BYTES)
            match = yield from T.find_in_bucket(self.ep, raw, fp, key)
            if match is not None:
                self.hits += 1
                return match[4]
        self.misses += 1
        return None

    def set(self, key: bytes, value: bytes) -> Generator:
        lay = self.cluster.layout
        key_hash = L.stable_hash64(key)
        fp = L.fingerprint(key_hash)
        span = L.object_span(len(key), len(value))
        for _attempt in range(16):
            target_addr: Optional[int] = None
            target_atomic = 0
            old_pointer = old_bytes = 0
            empty_addr: Optional[int] = None
            for bucket in T.buckets_of(key_hash, lay.num_buckets):
                bucket_addr = lay.bucket_addr(bucket)
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
