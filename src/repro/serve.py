"""Cluster launcher for the real substrate: ``python -m repro.serve``.

Sizes a cluster with the shared geometry plan, spawns one memory-node
server process per node, writes the cluster descriptor (the JSON a
:class:`~repro.runtime.cluster.RealCluster` in any process joins from),
and then either:

- serves until SIGINT/SIGTERM (the default), or
- with ``--load OPS``, drives an embedded load-generator run against the
  fresh cluster, prints the report, shuts everything down, and exits
  non-zero if any process or shared-memory segment leaked — the exact
  invocation the CI smoke job runs.

``--load`` composes with ``--chaos-plan plan.json``: the FaultPlan is
compiled from sim-time to wall-clock and armed in every node's fault
gate for the duration of the run, optionally with a SIGKILL/restart
cycle of node 1 (``--kill``), and the run ends with grant
reconciliation plus the invariant sweep over the real heaps (see
``repro.runtime.chaos``).  SIGTERM and SIGINT are handled gracefully in
every mode — servers drain in-flight requests and the launcher reaps
children and segments — so an interrupted run never leaks ``ditto-*``
shared memory.

Examples::

    # long-running 2-node cluster; attach load generators from other shells
    python -m repro.serve --memory-nodes 2 --descriptor /tmp/cluster.json

    # self-contained smoke: 5k ops from 16 concurrent clients, then reap
    python -m repro.serve --memory-nodes 2 --load 5000 --clients 16

    # the same smoke under an armed fault plan with a kill/restart cycle
    python -m repro.serve --memory-nodes 2 --load 5000 --clients 16 \\
        --chaos-plan plan.json --kill
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import threading
from typing import List, Optional

from .obs import observer
from .obs import runtime as obs_runtime
from .runtime.harness import RealClusterHarness
from .runtime.loadgen import run_load


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Launch a real-substrate Ditto cluster",
    )
    parser.add_argument("--memory-nodes", type=int, default=2)
    parser.add_argument("--capacity", type=int, default=4096,
                        help="initial capacity in objects")
    parser.add_argument("--max-capacity", type=int, default=None,
                        help="elastic ceiling in objects")
    parser.add_argument("--object-bytes", type=int, default=256)
    parser.add_argument("--clients", type=int, default=16,
                        help="planned client count (sizes per-client state)")
    parser.add_argument("--segment-bytes", type=int, default=256 * 1024)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--run-id", default=None,
                        help="shared-memory namespace (default: random)")
    parser.add_argument("--descriptor", default="",
                        help="write the cluster descriptor JSON here")
    parser.add_argument("--load", type=int, default=0, metavar="OPS",
                        help="drive OPS total operations, then shut down")
    parser.add_argument("--read-ratio", type=float, default=0.95)
    parser.add_argument("--value-bytes", type=int, default=232)
    parser.add_argument("--keys", type=int, default=2000)
    parser.add_argument("--preload", type=int, default=0)
    parser.add_argument("--chaos-plan", default="", metavar="PLAN_JSON",
                        help="with --load: arm this FaultPlan (sim-time "
                             "JSON, compiled to wall-clock) during the run")
    parser.add_argument("--time-scale", type=float, default=None,
                        help="with --chaos-plan: sim-µs → wall-µs multiplier")
    parser.add_argument("--kill", action="store_true",
                        help="with --chaos-plan: SIGKILL node 1 mid-load "
                             "and restart-and-adopt it")
    args = parser.parse_args(argv)
    if args.chaos_plan and not args.load:
        parser.error("--chaos-plan runs only with --load")
    if not args.chaos_plan and (args.kill or args.time_scale is not None):
        parser.error("--kill and --time-scale run only with --chaos-plan")
    observer.init("launcher")

    harness = RealClusterHarness(
        capacity_objects=args.capacity,
        object_bytes=args.object_bytes,
        num_clients=args.clients,
        num_memory_nodes=args.memory_nodes,
        segment_bytes=args.segment_bytes,
        max_capacity_objects=args.max_capacity,
        seed=args.seed,
        run_id=args.run_id,
    )
    exit_code = 0

    def _graceful(_signum, _frame):
        # SIGTERM behaves like Ctrl-C in every mode: the KeyboardInterrupt
        # unwinds into the finally below, which shuts servers down cleanly
        # (drained requests, unlinked segments) instead of leaking them.
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _graceful)
    try:
        descriptor = harness.launch()
        for entry in descriptor["nodes"]:
            print(
                f"memory-node {entry['node_id']}: 127.0.0.1:{entry['port']} "
                f"shm={entry['shm']} [{entry['base']:#x}, "
                f"{entry['base'] + entry['size']:#x})",
                flush=True,
            )
        if args.descriptor:
            harness.write_descriptor(args.descriptor)
            print(f"descriptor written to {args.descriptor}", flush=True)

        if args.load and args.chaos_plan:
            from .runtime.chaos import DEFAULT_TIME_SCALE, run_chaos
            from .sim.faults import FaultPlan

            with open(args.chaos_plan, "r", encoding="utf-8") as fh:
                plan = FaultPlan.from_dict(json.load(fh))
            report = asyncio.run(run_chaos(
                harness, plan,
                time_scale=args.time_scale or DEFAULT_TIME_SCALE,
                clients=args.clients,
                ops=args.load,
                n_keys=args.keys,
                read_ratio=args.read_ratio,
                value_bytes=args.value_bytes,
                preload=args.preload,
                seed=args.seed + 7,
                kill_node_id=1 if args.kill else None,
            ))
            print(json.dumps(report, indent=2, sort_keys=True), flush=True)
            digest = report.get("digest") or obs_runtime.build_digest(report)
            print(obs_runtime.format_digest(digest), flush=True)
            if report["failed_ops"]:
                exit_code = 1
        elif args.load:
            report = asyncio.run(run_load(
                descriptor,
                clients=args.clients,
                ops=args.load,
                n_keys=args.keys,
                read_ratio=args.read_ratio,
                value_bytes=args.value_bytes,
                preload=args.preload,
                seed=args.seed + 7,
            ))
            print(json.dumps(report, indent=2, sort_keys=True), flush=True)
            print(obs_runtime.format_digest(obs_runtime.build_digest(report)),
                  flush=True)
            if report["failed_ops"]:
                exit_code = 1
        else:
            print("serving; Ctrl-C to shut down", flush=True)
            stop = threading.Event()
            for sig in (signal.SIGINT, signal.SIGTERM):
                signal.signal(sig, lambda *_: stop.set())
            stop.wait()
    except KeyboardInterrupt:
        print("interrupted; shutting down cleanly", flush=True)
        exit_code = 130
    finally:
        # An interrupt unwinds to here and the process exits normally, so
        # the launcher's shard is written by the hub's atexit flush (the
        # node servers flush theirs inside their drain paths).
        harness.shutdown()
    leak = harness.leak_report()
    harness.unlink_leaked()
    print(f"shutdown: {json.dumps(leak, sort_keys=True)}", flush=True)
    if not leak["clean"]:
        exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
