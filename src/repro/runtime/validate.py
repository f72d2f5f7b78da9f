"""Sim-vs-real validation: do throughput *orderings* agree?

The simulator is not calibrated to this machine — its microsecond costs
come from the paper's CX-5 testbed — so absolute throughputs will not
match a laptop running loopback TCP.  What must transfer is the *shape*:
if the sim says configuration A outperforms B outperforms C, the real
substrate has to rank them the same way, or the sim's conclusions about
design points cannot be trusted.

This harness runs the same closed-loop Zipfian workload on both
substrates across a set of configurations that vary the read/write mix,
ranks each substrate's throughputs, and asserts the rankings are
identical.  Both sides run the *same* driver
(:func:`~repro.bench.runner.closed_loop`) over the *same* per-client
request stream (:func:`~repro.bench.runner.zipf_feed`, one seed per
client) through the *same* :class:`~repro.core.client.DittoClient` code —
only the endpoint behind the verb layer differs — so an ordering
disagreement localizes to the substrate model, not the caching logic or
the load.

A second mode, ``--chaos``, is the wall-clock robustness drill: the
*same* :class:`~repro.sim.faults.FaultPlan` (canned drop+outage plan, or
``--chaos-plan plan.json``) is executed on the sim substrate and then —
compiled to wall-clock — against a live 2-node cluster under the full
load generator, optionally with a SIGKILL/restart-and-adopt cycle
(``--kill``), ending with grant reconciliation, lease-repair scrubs, and
the memory-accounting invariant sweep read out of the real shared-memory
heaps.  Pass criteria: zero client-visible failures (clean misses are
fine), a green sweep, and zero leaked processes or segments.

CLI::

    python -m repro.runtime.validate            # full run, ~30 s
    python -m repro.runtime.validate --ops 2000 # quicker smoke
    python -m repro.runtime.validate --chaos --kill --clients 16 --ops 5000
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Dict, List, Optional

from ..bench.runner import Harness, preload, zipf_feed
from ..bench.systems import build_ditto
from ..obs import observer
from ..obs import runtime as obs_runtime
from ..sim.faults import FaultPlan
from .harness import RealClusterHarness
from .loadgen import run_load

#: Configurations chosen so the expected ordering is robust on both
#: substrates: the axis is the read/write mix.  A Get costs two verbs
#: (index lookup + data read) while a Set costs several (data write, CAS
#: index insert, list maintenance), so throughput falls monotonically
#: with the write fraction whether each verb is a simulated NIC
#: transaction or a loopback socket round trip.  Concurrency is *not* a
#: portable axis — the real single-threaded node servers saturate — so
#: every config keeps the same client count and geometry.
CONFIGS = (
    {"name": "read-hot", "read_ratio": 0.95},
    {"name": "mixed", "read_ratio": 0.50},
    {"name": "write-heavy", "read_ratio": 0.05},
)

_CLIENTS = 8
_VALUE_BYTES = 232
_CAPACITY = 2048
_N_KEYS = 1500
_THETA = 0.99
_NUM_MEMORY_NODES = 2
_SEED = 11


def sim_run(
    read_ratio: float,
    plan: Optional[FaultPlan] = None,
    warm_us: float = 20_000.0,
    window_us: float = 60_000.0,
) -> Dict:
    """One sim run: the real load's clients and request streams, measured
    over one window; its throughput (Mops) and fault counters.

    Under a fault plan the clients get the same enlarged retry budget the
    real chaos run overlays (:data:`~repro.runtime.chaos.CHAOS_CLIENT_CONFIG`):
    riding a whole outage window takes more attempts than the default
    three.
    """
    from .chaos import CHAOS_CLIENT_CONFIG

    cluster = build_ditto(
        _CAPACITY,
        _CLIENTS,
        num_memory_nodes=_NUM_MEMORY_NODES,
        seed=_SEED,
        faults=plan,
        **(CHAOS_CLIENT_CONFIG if plan is not None else {}),
    )
    preload(
        cluster.engine, cluster.clients, range(_N_KEYS // 2),
        value_size=_VALUE_BYTES,
    )
    harness = Harness(cluster.engine, value_size=_VALUE_BYTES)
    feeds = [
        zipf_feed(20_000, _N_KEYS, _THETA, read_ratio,
                  _SEED * 1_000_003 + index)
        for index in range(_CLIENTS)
    ]
    harness.launch_all(cluster.clients, feeds)
    harness.warm(warm_us)
    measured = harness.measure(window_us)
    harness.stop_all()
    counters = cluster.counters.as_dict()
    return {
        "throughput_mops": measured.throughput_mops,
        "fault_counters": {
            key: value for key, value in sorted(counters.items())
            if key.startswith("fault")
        },
    }


def real_throughput(config: Dict, ops: int = 6000) -> Dict:
    """One real-substrate run for one configuration; the load report."""
    harness = RealClusterHarness(
        capacity_objects=_CAPACITY,
        num_clients=_CLIENTS,
        num_memory_nodes=_NUM_MEMORY_NODES,
        seed=_SEED,
    )
    try:
        descriptor = harness.launch()
        report = asyncio.run(run_load(
            descriptor,
            clients=_CLIENTS,
            ops=ops,
            n_keys=_N_KEYS,
            theta=_THETA,
            read_ratio=config["read_ratio"],
            value_bytes=_VALUE_BYTES,
            preload=_N_KEYS // 2,
            seed=_SEED,
        ))
    finally:
        harness.shutdown()
    leak = harness.leak_report()
    if not leak["clean"]:
        raise RuntimeError(f"cluster shutdown leaked: {leak}")
    if report["failed_ops"]:
        raise RuntimeError(
            f"{report['failed_ops']} operations failed under config "
            f"{config['name']}; refusing to rank a degraded run"
        )
    return report


def run_chaos_validation(
    ops: int = 5000,
    clients: int = 16,
    plan: Optional[FaultPlan] = None,
    time_scale: Optional[float] = None,
    kill: bool = False,
    progress=None,
) -> Dict:
    """One FaultPlan, two substrates, plus the real-heap invariant sweep."""
    from .chaos import CANNED_PLAN, DEFAULT_TIME_SCALE, run_chaos

    say = progress if progress is not None else (lambda _msg: None)
    if plan is None:
        plan = CANNED_PLAN
    if time_scale is None:
        time_scale = DEFAULT_TIME_SCALE

    say("[sim ] replaying the fault plan on the simulator ...")
    # The window covers the canned plan's sim-time fault windows, so the
    # counters show the drops and outages being ridden through.
    sim_result = sim_run(0.95, plan, warm_us=5_000.0, window_us=40_000.0)
    say(f"[sim ] {sim_result['throughput_mops']:.4f} Mops under faults "
        f"{sim_result['fault_counters']}")

    say(f"[real] loadgen under the compiled plan "
        f"({clients} clients / {ops} ops"
        + (", SIGKILL+restart of node 1" if kill else "") + ") ...")
    harness = RealClusterHarness(
        capacity_objects=_CAPACITY,
        num_clients=clients,
        num_memory_nodes=_NUM_MEMORY_NODES,
        seed=_SEED,
    )
    try:
        harness.launch()
        report = asyncio.run(run_chaos(
            harness, plan,
            time_scale=time_scale,
            clients=clients,
            ops=ops,
            n_keys=_N_KEYS,
            read_ratio=0.95,
            value_bytes=_VALUE_BYTES,
            preload=_N_KEYS // 2,
            seed=_SEED,
            kill_node_id=1 if kill else None,
        ))
    finally:
        harness.shutdown()
    leak = harness.leak_report()
    harness.unlink_leaked()
    say(f"[real] {report['ops_per_s']} ops/s, "
        f"{report['failed_ops']} failed ops, "
        f"sweep {report['chaos']['sweep']}, leak check {leak}")
    return {
        "plan": plan.to_dict(),
        "time_scale": time_scale,
        "kill": kill,
        "sim": sim_result,
        "real": report,
        "leak": leak,
        "clean": bool(leak["clean"] and report["failed_ops"] == 0),
    }


def _ranking(throughputs: Dict[str, float]) -> List[str]:
    """Config names from fastest to slowest."""
    return sorted(throughputs, key=throughputs.__getitem__, reverse=True)


def run_validation(
    ops: int = 6000, configs=CONFIGS, progress=None
) -> Dict:
    """Run every config on both substrates; returns the comparison."""
    say = progress if progress is not None else (lambda _msg: None)
    sim: Dict[str, float] = {}
    real: Dict[str, float] = {}
    digests: Dict[str, Dict] = {}
    for config in configs:
        say(f"[sim ] {config['name']} ...")
        sim[config["name"]] = sim_run(config["read_ratio"])["throughput_mops"]
        say(f"[sim ] {config['name']}: {sim[config['name']]:.4f} Mops")
    for config in configs:
        say(f"[real] {config['name']} ...")
        report = real_throughput(config, ops=ops)
        real[config["name"]] = report["ops_per_s"]
        digests[config["name"]] = obs_runtime.build_digest(report)
        say(f"[real] {config['name']}: {real[config['name']]:.0f} ops/s")
    sim_order = _ranking(sim)
    real_order = _ranking(real)
    return {
        "configs": [dict(c) for c in configs],
        "sim_mops": sim,
        "real_ops_per_s": real,
        "digests": digests,
        "sim_ordering": sim_order,
        "real_ordering": real_order,
        "orderings_agree": sim_order == real_order,
    }


def _digest_path(override: str, default_name: str) -> str:
    """Where the post-run digest JSON lands, "next to the verdict".

    ``--digest PATH`` wins; with a hub armed by ``REPRO_TRACE`` the
    digest joins the trace shards in its directory; otherwise the cwd.
    """
    import os

    if override:
        return override
    hub = observer.current()
    if hub is not None and hub.directory:
        return os.path.join(hub.directory, default_name)
    return default_name


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Assert sim and real-substrate throughput orderings agree"
    )
    parser.add_argument("--ops", type=int, default=None,
                        help="real-substrate ops per configuration "
                             "(default 6000; with --chaos, 5000)")
    parser.add_argument("--json", default="",
                        help="also write the comparison to this path")
    parser.add_argument("--digest", default="",
                        help="post-run metrics digest JSON path (default: "
                             "<mode>-digest.json, or inside $REPRO_TRACE)")
    parser.add_argument("--chaos", action="store_true",
                        help="run the wall-clock chaos drill instead of "
                             "the throughput-ordering comparison")
    parser.add_argument("--kill", action="store_true",
                        help="with --chaos: SIGKILL memory node 1 "
                             "mid-load and restart-and-adopt it")
    parser.add_argument("--clients", type=int, default=16,
                        help="with --chaos: concurrent loadgen clients")
    parser.add_argument("--chaos-plan", default="",
                        help="with --chaos: FaultPlan JSON file "
                             "(default: the canned drop+outage plan)")
    parser.add_argument("--time-scale", type=float, default=None,
                        help="with --chaos: sim-µs → wall-µs multiplier")
    args = parser.parse_args(argv)
    if not args.chaos and (
        args.kill or args.chaos_plan or args.time_scale is not None
    ):
        parser.error("--kill, --chaos-plan and --time-scale run only with --chaos")
    observer.init("launcher")

    if args.chaos:
        plan = None
        if args.chaos_plan:
            with open(args.chaos_plan, "r", encoding="utf-8") as fh:
                plan = FaultPlan.from_dict(json.load(fh))
        result = run_chaos_validation(
            ops=5000 if args.ops is None else args.ops,
            clients=args.clients,
            plan=plan,
            time_scale=args.time_scale,
            kill=args.kill,
            progress=print,
        )
        text = json.dumps(result, indent=2, sort_keys=True, default=str)
        print(text)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        digest = result["real"].get(
            "digest", obs_runtime.build_digest(result["real"])
        )
        print()
        print(obs_runtime.format_digest(digest))
        digest_path = _digest_path(args.digest, "chaos-digest.json")
        obs_runtime.persist_digest(digest, digest_path)
        print(f"digest written to {digest_path}")
        verdict = "CLEAN" if result["clean"] else "DIRTY"
        print(f"chaos drill {verdict}")
        return 0 if result["clean"] else 1

    result = run_validation(
        ops=6000 if args.ops is None else args.ops, progress=print
    )
    print()
    print(f"{'config':<10} {'sim Mops':>10} {'real ops/s':>12}")
    for config in result["configs"]:
        name = config["name"]
        print(f"{name:<10} {result['sim_mops'][name]:>10.4f} "
              f"{result['real_ops_per_s'][name]:>12.0f}")
    print()
    for name, digest in result["digests"].items():
        print(f"[{name}]")
        print(obs_runtime.format_digest(digest))
        print()
    digest_path = _digest_path(args.digest, "validate-digest.json")
    obs_runtime.persist_digest(result["digests"], digest_path)
    print(f"digest written to {digest_path}")
    print(f"sim ordering : {' > '.join(result['sim_ordering'])}")
    print(f"real ordering: {' > '.join(result['real_ordering'])}")
    verdict = "AGREE" if result["orderings_agree"] else "DISAGREE"
    print(f"orderings {verdict} across {len(result['configs'])} configs")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if result["orderings_agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
