"""A Redis-like monolithic-server caching cluster with live migration.

The elasticity strawman of Figures 1 and 13: data is sharded across
fixed-size VM nodes (1 CPU core each); every request is an RPC served by the
owner shard's CPU; scaling the cluster re-shards the key space and *migrates*
data, which (a) delays the performance gain / resource reclamation by the
migration duration and (b) dips throughput and inflates tail latency while
source and destination CPUs copy keys.

The model captures exactly those effects:

- per-node CPU as a simulated resource (the skew bottleneck on Zipfian
  workloads — the hottest shard caps cluster throughput),
- migration as background processes that occupy source *and* destination
  CPUs per moved key,
- request redirection for keys whose move has already completed (clients
  learn per-key placement only via MOVED responses, as in Redis Cluster).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..core.layout import stable_hash64
from ..sim import Engine, Resource


class RedisNode:
    """One cache VM: a single-core server."""

    def __init__(self, engine: Engine):
        self.cpu = Resource(engine, 1)
        self.served = 0


class _Migration:
    """Book-keeping of one in-flight re-sharding."""

    def __init__(self, old_n: int, new_n: int, total_moving: int, streams: int):
        self.old_n = old_n
        self.new_n = new_n
        self.total_moving = total_moving
        self.moved = 0
        self.streams_left = streams
        self.started_at: float = 0.0
        self.finished_at: Optional[float] = None

    @property
    def fraction(self) -> float:
        if self.total_moving == 0:
            return 1.0
        return self.moved / self.total_moving


class RedisCluster:
    """The sharded monolithic cache."""

    def __init__(
        self,
        initial_nodes: int = 32,
        engine: Optional[Engine] = None,
        op_cpu_us: float = 2.5,
        client_rtt_us: float = 100.0,
        redirect_cpu_us: float = 0.4,
        migration_key_cpu_us: float = 3.0,
        migration_batch: int = 256,
        migration_duty_cycle: float = 0.25,
    ):
        """``migration_duty_cycle`` throttles migration streams to a fraction
        of each involved node's CPU (Redis interleaves MIGRATE bursts with
        request serving), bounding the throughput dip."""
        if not 0.0 < migration_duty_cycle <= 1.0:
            raise ValueError("migration_duty_cycle must be in (0, 1]")
        if initial_nodes < 1:
            raise ValueError("need at least one node")
        self.engine = engine or Engine()
        self.op_cpu_us = op_cpu_us
        self.client_rtt_us = client_rtt_us
        self.redirect_cpu_us = redirect_cpu_us
        self.migration_key_cpu_us = migration_key_cpu_us
        self.migration_batch = migration_batch
        self.migration_duty_cycle = migration_duty_cycle
        self.nodes: List[RedisNode] = [RedisNode(self.engine) for _ in range(initial_nodes)]
        self.active_nodes = initial_nodes
        self.store: Dict[bytes, bytes] = {}
        self.migration: Optional[_Migration] = None
        self.migrations_done: List[_Migration] = []
        self.redirects = 0
        self.clients: List[RedisClient] = []

    # -- data ---------------------------------------------------------------

    def load(self, items: Dict[bytes, bytes]) -> None:
        """Pre-populate (outside measured time)."""
        self.store.update(items)

    # -- placement ------------------------------------------------------------

    @staticmethod
    def _h2(key_hash: int) -> float:
        """Secondary hash in [0, 1): deterministic per-key move ordering."""
        return ((key_hash * 0x9E3779B97F4A7C15) >> 40 & 0xFFFFFF) / float(1 << 24)

    def _is_moving(self, key_hash: int) -> bool:
        mig = self.migration
        if mig is None:
            return False
        return key_hash % mig.new_n != key_hash % mig.old_n

    def route(self, key_hash: int) -> Tuple[int, bool]:
        """Owner node index and whether the first contact gets a MOVED."""
        mig = self.migration
        if mig is None or not self._is_moving(key_hash):
            return key_hash % self.active_nodes, False
        if self._h2(key_hash) < mig.fraction:
            # Already moved: the client still contacts the old owner first.
            return key_hash % mig.new_n, True
        return key_hash % mig.old_n, False

    # -- elasticity --------------------------------------------------------------

    def scale(self, new_count: int) -> None:
        """Begin re-sharding to ``new_count`` nodes (asynchronous)."""
        if self.migration is not None:
            raise RuntimeError("a migration is already in progress")
        old = self.active_nodes
        if new_count == old:
            return
        while len(self.nodes) < new_count:
            self.nodes.append(RedisNode(self.engine))
        moving = sum(
            1
            for key in self.store
            if stable_hash64(key) % new_count != stable_hash64(key) % old
        )
        streams = abs(new_count - old)
        mig = _Migration(old, new_count, moving, streams)
        mig.started_at = self.engine.now
        self.migration = mig
        per_stream = -(-moving // streams) if streams else 0
        for s in range(streams):
            count = min(per_stream, max(moving - s * per_stream, 0))
            if new_count > old:
                src, dst = s % old, old + s
            else:
                src, dst = new_count + s, s % new_count
            self.engine.spawn(
                self._migrate_stream(mig, src, dst, count),
                name=f"migrate-{src}->{dst}",
            )
        # Growing: new nodes serve immediately for already-moved keys, so the
        # routing capacity changes only when migration completes (below).

    def _migrate_stream(self, mig: _Migration, src: int, dst: int, count: int) -> Generator:
        remaining = count
        cost = self.migration_key_cpu_us
        duty = self.migration_duty_cycle
        while remaining > 0:
            batch = min(self.migration_batch, remaining)
            yield from self.nodes[src].cpu.serve(batch * cost)
            yield from self.nodes[dst].cpu.serve(batch * cost)
            mig.moved += batch
            remaining -= batch
            if duty < 1.0:
                # Back off so request serving gets (1 - duty) of the CPUs.
                yield 2 * batch * cost * (1.0 / duty - 1.0)
        mig.streams_left -= 1
        if mig.streams_left == 0:
            mig.finished_at = self.engine.now
            self.active_nodes = mig.new_n
            del self.nodes[mig.new_n :]  # reclamation (no-op when growing)
            self.migration = None
            self.migrations_done.append(mig)

    @property
    def provisioned_nodes(self) -> int:
        """Nodes holding resources (reclamation lags during scale-in)."""
        return len(self.nodes)

    def add_clients(self, n: int) -> None:
        base = len(self.clients)
        self.clients.extend(RedisClient(self, base + i) for i in range(n))


class RedisClient:
    """A client of the Redis-like cluster (RPC per request)."""

    def __init__(self, cluster: RedisCluster, client_id: int):
        self.cluster = cluster
        self.client_id = client_id
        self.hits = 0
        self.misses = 0

    def _request(self, key_hash: int) -> Generator:
        cl = self.cluster
        node_idx, redirected = cl.route(key_hash)
        yield cl.client_rtt_us / 2
        if redirected:
            cl.redirects += 1
            old_idx = key_hash % (cl.migration.old_n if cl.migration else cl.active_nodes)
            yield from cl.nodes[old_idx].cpu.serve(cl.redirect_cpu_us)
            yield cl.client_rtt_us  # bounce to the real owner
        if node_idx >= len(cl.nodes):
            # A scale-in finished during the flight and reclaimed the owner
            # the client routed to: the request bounces to the new owner.
            cl.redirects += 1
            yield cl.client_rtt_us
            node_idx = key_hash % cl.active_nodes
        node = cl.nodes[node_idx]
        yield from node.cpu.serve(cl.op_cpu_us)
        node.served += 1
        yield cl.client_rtt_us / 2

    def get(self, key: bytes) -> Generator:
        yield from self._request(stable_hash64(key))
        value = self.cluster.store.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def set(self, key: bytes, value: bytes) -> Generator:
        yield from self._request(stable_hash64(key))
        self.cluster.store[key] = value
        return True
