"""Concurrent load generator for the real substrate.

Drives a live cluster (launched by ``python -m repro.serve`` or
:class:`~repro.runtime.harness.RealClusterHarness`) with any number of
concurrent clients: every logical client is a full
:class:`~repro.core.client.DittoClient` with its own
:class:`~repro.runtime.client.RealEndpoint`, and all of them send over
the process's one link per memory node.  The sim's measuring harness,
:class:`~repro.bench.runner.Harness`, runs them: it launches each
client's closed loop over the Zipfian request stream the sim replays
(:func:`~repro.bench.runner.zipf_feed`, each key id spelled by
:func:`wire_key`) for its share of the ops, and records every op into
one :class:`~repro.bench.runner.MeasureResult` for the report.  Under
``REPRO_TRACE`` each client's ops are spans on its own wall lane, and
the clients record the ``op.latency`` histograms the sim records (here
in wall-clock microseconds) into the process's trace shard.

Scales to thousands of clients in one process: the link is one
``asyncio.Protocol`` on one socket per memory node (no stream objects,
no reader task), and each client's whole loop is one
:func:`~repro.runtime.client.drive` call: an op costs no future and no
task wake-up, whatever verbs it issues, and the next op's first verb
corks inline as the last one's answer is dispatched.  The report ends
with how well the frames batched on both ends: frames per flush on the
client's links (with the verbs that left the inline path for the
recovery coroutine), and frames, wake-ups and sends of each memory node
(from ``__stats__``).

CLI::

    python -m repro.runtime.loadgen --descriptor cluster.json \\
        --clients 1000 --ops 10000
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Dict, Optional

from ..bench.runner import Harness, load, zipf_feed
from ..obs import observer
from .cluster import RealCluster
from .harness import control_rpc


def wire_key(key_id: int) -> bytes:
    """The key a real client sends for ``key_id``: the benchmark's real
    loop (``perf/workloads.py``) sends the same text and checks that it
    issues the same verbs as this load generator, so the two move to the
    sim's :func:`~repro.bench.runner.pack_key` together."""
    return b"key-%d" % key_id


def node_batching(descriptor: Dict) -> list:
    """Frames, wake-ups and sends of every reachable memory node, read
    over the out-of-band control channel (so no endpoint counter moves).
    Frames per wake-up says how well the load's frames coalesced."""
    rows = []
    for entry in descriptor["nodes"]:
        try:
            stats = control_rpc(entry["unix"], "__stats__", None,
                                timeout_s=2.0)
        except (OSError, RuntimeError):
            continue  # a killed or restarting node has nothing to say
        rows.append({
            "node_id": stats["node_id"],
            "frames": stats["ops_served"],
            "wakeups": stats["wakeups"],
            "sends": stats["sends"],
        })
    return rows


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
) -> Dict:
    """Drive ``ops`` total operations from ``clients`` concurrent clients:
    the first ``ops % clients`` take one op more, and clients past ``ops`` none.

    Returns a report dict: throughput, per-verb latency percentiles, hit
    rate, failure counts, and the endpoint counters.

    A caller that needs the cluster afterwards (the chaos harness runs
    its invariant sweep over the same client state) may pass its own
    ``cluster`` — it must have no clients yet and is *not* closed here.
    ``on_start`` is an optional async callback awaited right before the
    clients start (chaos uses it to arm fault gates and schedule the kill
    task on the running loop).  ``ops`` and ``ops_per_s`` count the ops
    that completed; ``failed_ops`` the rest.
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
    harness = Harness(cluster.engine, value_size=value_bytes,
                      tolerate_failures=True, pack=wire_key)
    if preload:
        await cluster.engine.spawn(
            load(cluster.clients[0], range(preload), harness.value, wire_key))
    if on_start is not None:
        await on_start()
    for index, client in enumerate(cluster.clients[:ops]):
        share = ops // clients + (index < ops % clients)
        harness.launch(client, zipf_feed(
            share, n_keys, theta, read_ratio, seed * 1_000_003 + index,
        ), share)
    load_start_us = obs.now_us() if obs is not None else 0.0
    result = await harness.measure_launched()
    if obs is not None:
        obs.tracer.complete(
            "load", "phase", load_start_us,
            args={"clients": clients, "ops": ops},
        )
    nodes = node_batching(descriptor)
    links = cluster.engine.link_stats()
    if owns_cluster:
        await cluster.aclose()

    wall_s = result.duration_us / 1e6
    get_lat, set_lat = result.get_latency, result.set_latency
    counters = cluster.counters.as_dict()
    return dict(
        clients=clients,
        ops=result.ops,
        failed_ops=harness.failed_ops,
        wall_s=round(wall_s, 4),
        ops_per_s=round(result.ops / wall_s, 1) if wall_s else 0.0,
        hit_rate=round(result.hit_rate, 4),
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
