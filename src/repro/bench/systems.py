"""The DM-tier systems by name, trace-run helpers and a metadata-node crash
for experiments."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..baselines import CliqueMapCluster, DmKvsCluster, ShardLruCluster
from ..core import DittoCluster, DittoConfig
from ..rdma.verbs import RdmaEndpoint, RdmaFaultError
from ..sim.faults import FaultPlan, RpcFailure
from ..workloads import shard_trace
from .runner import Feed, Harness, MeasureResult, preload


def build_ditto(
    capacity_objects: int,
    num_clients: int,
    policies: Sequence[str] = ("lru", "lfu"),
    object_bytes: int = 256,
    seed: int = 7,
    max_capacity_objects: Optional[int] = None,
    num_memory_nodes: int = 1,
    faults=None,
    segment_bytes: int = 256 * 1024,
    **config_kwargs,
) -> DittoCluster:
    config = DittoConfig(policies=tuple(policies), **config_kwargs)
    return DittoCluster(
        capacity_objects=capacity_objects,
        object_bytes=object_bytes,
        num_clients=num_clients,
        config=config,
        seed=seed,
        segment_bytes=segment_bytes,
        max_capacity_objects=max_capacity_objects,
        num_memory_nodes=num_memory_nodes,
        faults=faults,
    )


def build(system: str, capacity_objects: int, num_clients: int):
    """The DM-tier deployment a figure names.

    ``ditto`` (adaptive LRU+LFU) and ``ditto-<policy>``; ``cm-<policy>``
    (CliqueMap, ``lru`` or ``lfu``); ``shard-lru`` and ``kvc-s`` (32
    shards, 5 µs backoff), ``kvc`` (one shard, no backoff); ``kvs``.  The
    names ``bench.hitrate.make_hit_cache`` also knows mean the same
    policies there.
    """
    if system == "ditto":
        return build_ditto(capacity_objects, num_clients)
    if system.startswith("ditto-"):
        return build_ditto(capacity_objects, num_clients, policies=(system[6:],))
    if system.startswith("cm-"):
        return CliqueMapCluster(policy=system[3:], capacity_objects=capacity_objects,
                                num_clients=num_clients)
    if system in ("shard-lru", "kvc-s", "kvc"):
        one = system == "kvc"
        return ShardLruCluster(capacity_objects=capacity_objects, num_clients=num_clients,
                               shards=1 if one else 32, backoff_us=0.0 if one else 5.0)
    if system == "kvs":
        return DmKvsCluster(capacity_objects=capacity_objects, num_clients=num_clients)
    raise ValueError(f"unknown DM system {system!r}")


class MetadataNodeCrash:
    """Crash node 0's controller for ``crash_us`` the moment a drain enters
    its copy phase (pass :meth:`on_phase` to ``remove_memory_node``).

    The crash is ``RpcFailure(node_id=0)`` (DESIGN §3.6): metadata RPCs to
    node 0 fail while one-sided verbs still reach its heap, and every
    caller rides it out on its fault-retry path.  From the crash on, a
    probe asks node 0 for the membership every :data:`PROBE_US`; its first
    answer closes the metadata-unavailability window."""

    PROBE_US = 100.0

    def __init__(self, cluster: DittoCluster, crash_us: float):
        self.cluster = cluster
        self.crash_us = crash_us
        self.at_us: Optional[float] = None
        self.unavailability_us: Optional[float] = None

    def on_phase(self, name: str) -> None:
        if name != "copy" or self.at_us is not None:
            return
        cluster = self.cluster
        self.at_us = cluster.engine.now
        cluster.fault_injector.load(
            FaultPlan(rpc_failures=(RpcFailure(0.0, self.crash_us, node_id=0),)),
            offset_us=self.at_us,
        )
        cluster.engine.spawn(self._probe(), name="metadata-probe")

    def _probe(self):
        cluster = self.cluster
        ep = RdmaEndpoint(cluster.engine, cluster.pool, cluster.params,
                          faults=cluster.fault_injector)
        while True:
            try:
                yield from ep.rpc(cluster.node, "get_membership")
            except RdmaFaultError:
                yield self.PROBE_US
                continue
            self.unavailability_us = cluster.engine.now - self.at_us
            return


def trace_feeds(trace: np.ndarray, n_clients: int) -> list:
    """Per-client read feeds: each client iteratively replays its shard."""
    return [Feed.reads(shard) for shard in shard_trace(trace, n_clients)]


def run_trace_workload(
    cluster,
    clients,
    trace: np.ndarray,
    value_size: int = 232,
    miss_penalty_us: float = 0.0,
    warm_us: float = 20_000.0,
    window_us: float = 60_000.0,
) -> MeasureResult:
    """The §5.4 protocol: warm the cache, then measure clients replaying
    their trace shards with the configured miss penalty."""
    harness = Harness(
        cluster.engine, value_size=value_size, miss_penalty_us=miss_penalty_us
    )
    harness.launch_all(clients, trace_feeds(trace, len(clients)))
    harness.warm(warm_us)
    result = harness.measure(window_us)
    harness.stop_all()
    return result


def run_ycsb_workload(
    cluster,
    clients,
    workload: str,
    n_keys: int,
    value_size: int = 232,
    requests_per_client: int = 20_000,
    warm_us: float = 5_000.0,
    window_us: float = 20_000.0,
    seed: int = 100,
) -> MeasureResult:
    """The §5.3 protocol: preload all keys, then measure YCSB request mixes
    (no cache misses; Sets are updates)."""
    from ..workloads import make_ycsb

    preload(cluster.engine, clients, range(n_keys), value_size=value_size)
    harness = Harness(cluster.engine, value_size=value_size)
    feeds = [
        Feed(*make_ycsb(
            workload, n_keys=n_keys, seed=seed + i, client_id=i
        ).arrays(requests_per_client))
        for i in range(len(clients))
    ]
    harness.launch_all(clients, feeds)
    harness.warm(warm_us)
    result = harness.measure(window_us)
    harness.stop_all()
    return result
