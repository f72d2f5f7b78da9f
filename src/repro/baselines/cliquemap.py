"""CliqueMap (SIGCOMM'21) reimplemented per the paper's description (§5.1).

Hybrid RMA/RPC division of labour:

- *Get*: clients issue one-sided READs (index bucket, then the object) and
  record the access locally; no server CPU on the read path.
- *Set*: an RPC served by the memory node's CPU, which owns the cache
  structures and runs a **precise** LRU or LFU eviction.
- Periodically each client ships its buffered access information to the
  server, which merges it into the caching structures — the CPU and network
  amplification the paper identifies as CliqueMap's bottleneck on
  read-intensive workloads.

Replication/fault tolerance are disabled, as in the paper's comparison.  The
server's index and caching structures are cost-modelled: the verbs and RPCs
carry full timing (NIC + controller CPU contention) while the structures
themselves are the exact LRU/LFU models from ``repro.cachesim``.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from ..cachesim import ExactLFUCache, ExactLRUCache
from ..core import layout as L
from .deployment import DmDeployment

_BUCKET_BYTES = 64
#: Server CPU per Set RPC and per merged access entry.
_SET_CPU_US = 1.5
_MERGE_ENTRY_CPU_US = 0.3


class CliqueMapServer:
    """Server-side state: value store + precise caching structure."""

    def __init__(self, policy: str, capacity_objects: int):
        policy = policy.lower()
        if policy == "lru":
            self.cache = ExactLRUCache(capacity_objects)
        elif policy == "lfu":
            self.cache = ExactLFUCache(capacity_objects)
        else:
            raise ValueError(f"CliqueMap supports lru/lfu, got {policy!r}")
        self.policy = policy
        self.store: Dict[bytes, bytes] = {}
        self.sets = 0
        self.merged_entries = 0

    def handle_set(self, payload) -> bool:
        key, value = payload
        self.sets += 1
        for evicted in self.cache.insert(key):
            self.store.pop(evicted, None)
        self.store[key] = value
        return True

    def handle_merge(self, keys: List[bytes]) -> int:
        self.merged_entries += len(keys)
        for key in keys:
            self.cache.touch(key)
        return len(keys)

    def __contains__(self, key: bytes) -> bool:
        return key in self.store


class CliqueMapClient:
    """Client: RMA Gets, RPC Sets, periodic access-info shipping."""

    def __init__(self, cluster: CliqueMapCluster, client_id: int):
        self.cluster = cluster
        self.client_id = client_id
        self.ep = cluster.make_endpoint()
        self._access_buffer: List[bytes] = []
        self.hits = 0
        self.misses = 0

    def _record_access(self, key: bytes) -> Generator:
        self._access_buffer.append(key)
        if len(self._access_buffer) >= self.cluster.sync_every:
            batch, self._access_buffer = self._access_buffer, []
            payload_bytes = sum(len(k) + 8 for k in batch)
            yield from self.ep.rpc(
                self.cluster.node, "cm_merge", batch, size=payload_bytes
            )

    def get(self, key: bytes) -> Generator:
        server = self.cluster.server
        yield from self.ep.charge(self.cluster.node, "read", _BUCKET_BYTES)
        if key in server:
            value = server.store[key]
            yield from self.ep.charge(
                self.cluster.node, "read", L.object_span(len(key), len(value))
            )
            self.hits += 1
            yield from self._record_access(key)
            return value
        self.misses += 1
        return None

    def set(self, key: bytes, value: bytes) -> Generator:
        yield from self.ep.rpc(
            self.cluster.node,
            "cm_set",
            (key, value),
            size=L.object_span(len(key), len(value)),
        )
        return True


class CliqueMapCluster(DmDeployment):
    """A CliqueMap deployment on the simulated fabric."""

    label = "cliquemap"
    client_class = CliqueMapClient

    def __init__(
        self,
        policy: str = "lru",
        capacity_objects: int = 4096,
        object_bytes: int = 256,
        num_clients: int = 1,
        server_cores: int = 1,
        sync_every: int = 64,
    ):
        self.sync_every = sync_every
        self.server = CliqueMapServer(policy, capacity_objects)
        # One MN hosts the data; its controller cores are the server CPU.
        super().__init__(
            4 * capacity_objects * max(object_bytes, 64) + (1 << 20),
            cores=server_cores,
        )
        self.controller.register(
            "cm_set", self.server.handle_set, cpu_us=_SET_CPU_US
        )
        self.controller.register(
            "cm_merge",
            self.server.handle_merge,
            cpu_us=lambda keys: _MERGE_ENTRY_CPU_US * len(keys),
        )
        self.add_clients(num_clients)
