"""Uniform builders, trace-run helpers and a leader-crash hook for experiments."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..baselines import CliqueMapCluster, ShardLruCluster
from ..core import DittoCluster, DittoConfig
from ..sim.faults import ControllerCrash, FaultPlan
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
    controller_replicas: int = 0,
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
        controller_replicas=controller_replicas,
    )


class LeaderCrash:
    """Crash a controller group's raft leader for ``crash_us`` the moment a
    drain enters its copy phase (pass :meth:`on_phase` to
    ``remove_memory_node``), then time the failover from the crash."""

    def __init__(self, cluster: DittoCluster, crash_us: float):
        self.cluster = cluster
        self.crash_us = crash_us
        self.leader: Optional[int] = None
        self.at_us: Optional[float] = None

    def on_phase(self, name: str) -> None:
        if name != "copy" or self.at_us is not None:
            return
        cluster = self.cluster
        self.leader = cluster.consensus.leader_id()
        self.at_us = cluster.engine.now
        cluster.fault_injector.load(
            FaultPlan(
                controller_crashes=(
                    ControllerCrash(self.leader, 0.0, self.crash_us),
                )
            ),
            offset_us=self.at_us,
        )

    def election_latency_us(self) -> Optional[float]:
        """Crash to the successor's ``leader`` event."""
        return next((
            t - self.at_us
            for t, kind, _rid, _term in self.cluster.consensus.election_timeline()
            if kind == "leader" and t > self.at_us
        ), None)

    def unavailability_us(self) -> Optional[float]:
        """Crash to the first metadata command committed after it."""
        return next((
            t - self.at_us
            for t, _position in self.cluster.consensus.commit_times
            if t > self.at_us
        ), None)


def build_cliquemap(
    policy: str,
    capacity_objects: int,
    num_clients: int,
    object_bytes: int = 256,
    server_cores: int = 1,
) -> CliqueMapCluster:
    return CliqueMapCluster(
        policy=policy,
        capacity_objects=capacity_objects,
        object_bytes=object_bytes,
        num_clients=num_clients,
        server_cores=server_cores,
    )


def build_shard_lru(
    capacity_objects: int,
    num_clients: int,
    shards: int = 32,
    backoff_us: float = 5.0,
    object_bytes: int = 256,
) -> ShardLruCluster:
    return ShardLruCluster(
        capacity_objects=capacity_objects,
        object_bytes=object_bytes,
        num_clients=num_clients,
        shards=shards,
        backoff_us=backoff_us,
        seed=7,
    )


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
    load: bool = True,
    seed: int = 100,
) -> MeasureResult:
    """The §5.3 protocol: preload all keys, then measure YCSB request mixes
    (no cache misses; Sets are updates)."""
    from ..workloads import make_ycsb

    if load:
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
