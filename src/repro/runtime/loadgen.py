"""Concurrent load generator for the real substrate.

Drives a live cluster (launched by ``python -m repro.serve`` or
:class:`~repro.runtime.harness.RealClusterHarness`) with any number of
concurrent clients: every logical client is a full
:class:`~repro.core.client.DittoClient` with its own
:class:`~repro.runtime.client.RealEndpoint`, running as one asyncio task
in a closed loop over a Zipfian key stream; all of them send over the
process's one link per memory node.  Per-op latencies land in exact
:class:`~repro.sim.stats.LatencyStats` for the report percentiles; under
``REPRO_TRACE`` the clients additionally record the ``op.latency``
histograms the sim records (here in wall-clock microseconds) into the
process's trace shard.

Scales to thousands of clients in one process: the link is one
``asyncio.Protocol`` on one socket per memory node (no stream objects,
no reader task) and an op in flight is one future, whatever verbs it
issues.  The report ends with how well the frames batched on both ends:
frames per flush on the client's links (with the verbs that left the
inline path for the recovery coroutine), and frames, wake-ups and sends
of each memory node (from ``__stats__``).

CLI::

    python -m repro.runtime.loadgen --descriptor cluster.json \\
        --clients 1000 --ops 10000
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Dict, Optional

from ..core.client import CacheOperationError
from ..obs import observer
from ..rdma.verbs import RdmaFaultError
from ..sim.stats import LatencyStats
from ..workloads import ZipfianGenerator
from .client import drive
from .cluster import RealCluster
from .harness import control_rpc


class LoadReport(dict):
    """A plain dict with a stable schema; see :func:`run_load`."""


def node_batching(descriptor: Dict) -> list:
    """Frames, wake-ups and sends of every reachable memory node, read
    over the out-of-band control channel (so no endpoint counter moves).
    Frames per wake-up says how well the load's frames coalesced."""
    rows = []
    for entry in descriptor["nodes"]:
        try:
            stats = control_rpc(
                entry["host"], entry["port"], "__stats__", None, timeout_s=2.0
            )
        except (OSError, RuntimeError):
            continue  # a killed or restarting node has nothing to say
        rows.append({
            "node_id": stats["node_id"],
            "frames": stats["ops_served"],
            "wakeups": stats["wakeups"],
            "sends": stats["sends"],
        })
    return rows


async def _client_loop(
    cluster: RealCluster,
    client,
    ops: int,
    n_keys: int,
    theta: float,
    read_ratio: float,
    value_bytes: int,
    seed: int,
    stats: Dict,
    start_gate: asyncio.Event,
    obs: Optional[observer.Observability] = None,
    lane: int = 0,
) -> None:
    keys = ZipfianGenerator(n_keys, theta=theta, seed=seed).sample(ops)
    import random

    rng = random.Random(seed)
    value = bytes(value_bytes)
    get_lat = stats["get_latency"]
    set_lat = stats["set_latency"]
    tracer = obs.tracer if obs is not None else None
    await start_gate.wait()
    for i in range(ops):
        key = b"key-%d" % int(keys[i])
        is_read = rng.random() < read_ratio
        failed = False
        t0 = time.perf_counter()
        try:
            if is_read:
                result = await drive(client.get(key))
                if result is None:
                    # Cache-aside fill, as the sim harness models misses.
                    await drive(client.set(key, value))
            else:
                await drive(client.set(key, value))
        except (CacheOperationError, RdmaFaultError):
            stats["failed_ops"] += 1
            failed = True
        finally:
            stats["ops_done"] += 1
        elapsed_us = (time.perf_counter() - t0) * 1e6
        if tracer is not None:
            # Ops on this task are sequential, so spans nest trivially in
            # the client's own lane.
            tracer.complete_at(
                "op.get" if is_read else "op.set", "op",
                obs.now_us() - elapsed_us, elapsed_us, tid=lane,
                args={"failed": True} if failed else None,
            )
        if not failed:
            (get_lat if is_read else set_lat).record(elapsed_us)


async def run_load(
    descriptor: Dict,
    clients: int = 16,
    ops: int = 5000,
    n_keys: int = 2000,
    theta: float = 0.99,
    read_ratio: float = 0.95,
    value_bytes: int = 232,
    preload: int = 0,
    seed: int = 7,
    timeout_s: float = 10.0,
    cluster: Optional[RealCluster] = None,
    on_start=None,
) -> LoadReport:
    """Drive ``ops`` total operations from ``clients`` concurrent clients.

    Returns a report dict: throughput, per-verb latency percentiles, hit
    rate, failure counts, and the endpoint counters.

    A caller that needs the cluster afterwards (the chaos harness runs
    its invariant sweep over the same client state) may pass its own
    ``cluster`` — it must have no clients yet and is *not* closed here.
    ``on_start`` is an optional async callback awaited right before the
    start gate opens (chaos uses it to arm fault gates and schedule the
    kill task on the running loop).
    """
    obs = observer.current()
    owns_cluster = cluster is None
    if owns_cluster:
        cluster = RealCluster(descriptor, timeout_s=timeout_s)
    elif cluster.clients:
        raise ValueError("a caller-provided cluster must have no clients")
    cluster.add_clients(clients)
    if obs is not None:
        obs.registry.bridge(cluster.counters, component="client")
    stats = {
        "ops_done": 0,
        "failed_ops": 0,
        "get_latency": LatencyStats(),
        "set_latency": LatencyStats(),
    }
    if preload:
        loader = cluster.clients[0]
        for key_id in range(preload):
            await drive(loader.set(b"key-%d" % key_id, bytes(value_bytes)))

    per_client = -(-ops // clients)
    start_gate = asyncio.Event()
    tasks = [
        asyncio.ensure_future(
            _client_loop(
                cluster, client, per_client, n_keys, theta, read_ratio,
                value_bytes, seed * 1_000_003 + index, stats, start_gate,
                obs=obs,
                lane=obs.lane(f"client-{index}") if obs is not None else 0,
            )
        )
        for index, client in enumerate(cluster.clients)
    ]
    # Every task parks on the gate after its (cheap) setup, so the measured
    # window starts with all clients running.
    await asyncio.sleep(0)
    if on_start is not None:
        await on_start()
    load_start_us = obs.now_us() if obs is not None else 0.0
    t_start = time.perf_counter()
    start_gate.set()
    await asyncio.gather(*tasks)
    wall_s = time.perf_counter() - t_start
    if obs is not None:
        obs.tracer.complete(
            "load", "phase", load_start_us,
            args={"clients": clients, "ops": ops},
        )
    nodes = node_batching(descriptor)
    links = cluster.engine.link_stats()
    if owns_cluster:
        await cluster.aclose()

    get_lat = stats["get_latency"]
    set_lat = stats["set_latency"]
    counters = cluster.counters.as_dict()
    return LoadReport(
        clients=clients,
        ops=stats["ops_done"],
        failed_ops=stats["failed_ops"],
        wall_s=round(wall_s, 4),
        ops_per_s=round(stats["ops_done"] / wall_s, 1) if wall_s else 0.0,
        hit_rate=round(cluster.hit_rate(), 4),
        objects=cluster.object_count,
        get_p50_us=round(get_lat.percentile(50), 1) if get_lat.count else None,
        get_p99_us=round(get_lat.percentile(99), 1) if get_lat.count else None,
        set_p50_us=round(set_lat.percentile(50), 1) if set_lat.count else None,
        set_p99_us=round(set_lat.percentile(99), 1) if set_lat.count else None,
        evictions=sum(c.evictions for c in cluster.clients),
        regrets=sum(c.regrets for c in cluster.clients),
        counters={key: counters[key] for key in sorted(counters)},
        nodes=nodes,
        links=links,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Ditto real-substrate load generator"
    )
    parser.add_argument("--descriptor", required=True,
                        help="cluster descriptor JSON from repro.serve")
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--ops", type=int, default=5000)
    parser.add_argument("--keys", type=int, default=2000)
    parser.add_argument("--theta", type=float, default=0.99)
    parser.add_argument("--read-ratio", type=float, default=0.95)
    parser.add_argument("--value-bytes", type=int, default=232)
    parser.add_argument("--preload", type=int, default=0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", default="",
                        help="also write the report to this path")
    args = parser.parse_args(argv)
    observer.init("loadgen")
    with open(args.descriptor, "r", encoding="utf-8") as fh:
        descriptor = json.load(fh)
    report = asyncio.run(run_load(
        descriptor, clients=args.clients, ops=args.ops, n_keys=args.keys,
        theta=args.theta, read_ratio=args.read_ratio,
        value_bytes=args.value_bytes, preload=args.preload, seed=args.seed,
    ))
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
