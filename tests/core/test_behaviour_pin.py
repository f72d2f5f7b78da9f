"""Behaviour pin for the client's hot path.

A seeded mini run whose client statistics and cluster counters were
recorded once; an edit to the bucket scans that changes a victim, an rng
draw or a verb count changes the digest and fails tier-1, not only the
benchmark's identical-across-sections check.  The ``plain``/``faults``
digests were first recorded at commit f4d8c35 (the last with
``parse_slots``), ``churn``/``ext`` at b30cf5d (the last with three retry
ladders and ``_update_object``), and all four re-recorded when the sim
began booking a posted WRITE/FAA when it is posted, ahead of the client's
next verb; re-record them from the assertion message only for a change
that is *meant* to alter behaviour, and say so in CHANGES.md.

``churn`` is the tier-1 form of the ``extra-elasticity-churn`` golden: one
node added and one drained under an ``RpcFailure`` window, so membership
refreshes fault inside Sets — whether such a fault is swallowed or charged
to the fault budget (a backoff, i.e. an RNG draw) moves every count after
it.  ``ext`` runs an ext-field policy pair over a write-heavy feed, pinning
``_initial_ext``'s clock and the ext READ an update makes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import Feed, Harness, preload
from repro.bench.systems import build_ditto, trace_feeds
from repro.core import invariant_sweep
from repro.sim.faults import DropWindow, FaultPlan, RpcFailure
from repro.workloads import make_ycsb
from repro.workloads.traces import phase_switch_trace

CLIENTS = 8


def _ycsb_a_feeds(n_keys, clients, seed, requests):
    return [
        Feed.from_requests(
            make_ycsb("A", n_keys=n_keys, seed=seed + i, client_id=i)
            .requests(requests)
        )
        for i in range(clients)
    ]


def _run(faults, policies=("lru", "lfu"), write_heavy=False):
    trace = phase_switch_trace(12_000, 1024, phases=4, seed=5)
    footprint = len(np.unique(trace))
    cluster = build_ditto(
        max(16, footprint // 10), CLIENTS, policies=policies, seed=5,
        num_memory_nodes=2, faults=faults,
    )
    harness = Harness(
        cluster.engine, value_size=232, miss_penalty_us=500.0,
        tolerate_failures=faults is not None,
    )
    if write_heavy:
        feeds = _ycsb_a_feeds(1024, CLIENTS, 5, 4_000)
    else:
        feeds = trace_feeds(trace, CLIENTS)
    harness.launch_all(cluster.clients, feeds)
    harness.warm(40_000.0)
    result = harness.measure(160_000.0)
    harness.stop_all()
    return _digest(cluster, harness, ops=result.ops)


def _run_churn():
    n_keys, clients, seed = 300, 4, 13
    cluster = build_ditto(
        2 * n_keys, clients, seed=seed, num_memory_nodes=2, faults=FaultPlan()
    )
    preload(cluster.engine, cluster.clients, range(n_keys), value_size=232)
    harness = Harness(
        cluster.engine, value_size=232, miss_penalty_us=200.0,
        tolerate_failures=True,
    )
    harness.launch_all(
        cluster.clients, _ycsb_a_feeds(n_keys, clients, seed, 6_000)
    )
    harness.warm(5_000.0)
    cluster.add_memory_node()
    harness.measure(5_000.0)
    cluster.fault_injector.load(
        FaultPlan(rpc_failures=(RpcFailure(0.0, 3_000.0, prob=0.5),), seed=seed),
        offset_us=cluster.engine.now,
    )
    drain = cluster.remove_memory_node(1)
    while not drain.finished:
        harness.measure(5_000.0)
    harness.stop_all()
    cluster.engine.run()
    record = cluster.migrations[0]
    return _digest(
        cluster, harness,
        drain=(record.phase, record.migrated_objects, record.cas_lost),
        live_objects=invariant_sweep(cluster)["live_objects"],
    )


def _digest(cluster, harness, **extra):
    clients = cluster.clients
    return {
        **extra,
        "hits": sum(c.hits for c in clients),
        "misses": sum(c.misses for c in clients),
        "evictions": sum(c.evictions for c in clients),
        "regrets": sum(c.regrets for c in clients),
        "forced_bucket_evictions": sum(
            c.forced_bucket_evictions for c in clients
        ),
        "failed_ops": harness.failed_ops,
        "counters": sorted(cluster.counters.as_dict().items()),
    }


#: Metadata WRITEs dropped through the first half of the run leave
#: half-installed slots, so ``_repair_suspects`` both tracks and reclaims.
DROPS = FaultPlan(
    drops=(DropWindow(0.0, 100_000.0, prob=0.3, verbs=("write",)),), seed=3
)

EXPECTED = {
    "plain": {
        "ops": 5406, "hits": 3546, "misses": 3087, "evictions": 2877,
        "regrets": 1258, "forced_bucket_evictions": 23, "failed_ops": 0,
        "counters": [
            ("rdma_cas", 5951), ("rdma_faa", 3931), ("rdma_read", 17203),
            ("rdma_rpc", 25), ("rdma_write", 12575),
        ],
    },
    "faults": {
        "ops": 5086, "hits": 3296, "misses": 2932, "evictions": 2712,
        "regrets": 1056, "forced_bucket_evictions": 35, "failed_ops": 12,
        "counters": [
            ("fault_post_dropped", 1169), ("fault_retry", 588),
            ("fault_verb_timeout", 1769), ("lease_repair", 5),
            ("rdma_cas", 5608), ("rdma_faa", 3683), ("rdma_read", 16701),
            ("rdma_rpc", 20), ("rdma_write", 12407),
        ],
    },
    "churn": {
        "drain": ("done", 97, 50), "live_objects": 300,
        "hits": 5784, "misses": 0, "evictions": 0, "regrets": 0,
        "forced_bucket_evictions": 0, "failed_ops": 0,
        "counters": [
            ("epoch_bump", 3), ("fault_retry", 11), ("fault_verb_timeout", 12),
            ("membership_refresh", 4), ("migrated_bytes", 24832),
            ("migrated_objects", 97), ("migration_cas_lost", 50),
            ("mn_added", 1), ("mn_remove_started", 1), ("mn_removed", 1),
            ("rdma_cas", 6417), ("rdma_faa", 776), ("rdma_read", 18143),
            ("rdma_rpc", 32), ("rdma_write", 18439),
            ("stale_epoch_retry", 5),
        ],
    },
    "ext": {
        "ops": 6215, "hits": 980, "misses": 2975, "evictions": 5796,
        "regrets": 571, "forced_bucket_evictions": 31, "failed_ops": 0,
        "counters": [
            ("rdma_cas", 12683), ("rdma_faa", 6406), ("rdma_read", 32256),
            ("rdma_rpc", 16), ("rdma_write", 22360),
        ],
    },
}


RUNS = {
    "plain": lambda: _run(None),
    "faults": lambda: _run(DROPS),
    "churn": _run_churn,
    "ext": lambda: _run(None, policies=("lruk", "gdsf"), write_heavy=True),
}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_seeded_run_digest_is_unchanged(case):
    assert RUNS[case]() == EXPECTED[case]
