"""Behaviour pin for the client's hot path.

A seeded mini run whose client statistics and cluster counters were
recorded once; an edit to the bucket scans that changes a victim, an rng
draw or a verb count changes the digest and fails tier-1, not only the
benchmark's identical-across-sections check.  The digests were recorded at
commit f4d8c35 (the last with ``parse_slots``); re-record them from the
assertion message only for a change that is *meant* to alter behaviour, and
say so in CHANGES.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import Harness
from repro.bench.systems import build_ditto, trace_feeds
from repro.sim.faults import DropWindow, FaultPlan
from repro.workloads.traces import phase_switch_trace

CLIENTS = 8


def _run(faults):
    trace = phase_switch_trace(12_000, 1024, phases=4, seed=5)
    footprint = len(np.unique(trace))
    cluster = build_ditto(
        max(16, footprint // 10), CLIENTS, policies=("lru", "lfu"), seed=5,
        num_memory_nodes=2, faults=faults,
    )
    harness = Harness(
        cluster.engine, value_size=232, miss_penalty_us=500.0,
        tolerate_failures=faults is not None,
    )
    harness.launch_all(cluster.clients, trace_feeds(trace, CLIENTS))
    harness.warm(40_000.0)
    result = harness.measure(160_000.0)
    harness.stop_all()
    clients = cluster.clients
    return {
        "ops": result.ops,
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
        "ops": 5396, "hits": 3534, "misses": 3089, "evictions": 2881,
        "regrets": 1230, "forced_bucket_evictions": 40, "failed_ops": 0,
        "counters": [
            ("rdma_cas", 5939), ("rdma_faa", 3890), ("rdma_read", 17150),
            ("rdma_rpc", 24), ("rdma_write", 12553),
        ],
    },
    "faults": {
        "ops": 5039, "hits": 3278, "misses": 2926, "evictions": 2712,
        "regrets": 1063, "forced_bucket_evictions": 33, "failed_ops": 12,
        "counters": [
            ("fault_post_dropped", 1201), ("fault_retry", 603),
            ("fault_verb_timeout", 1816), ("lease_repair", 6),
            ("rdma_cas", 5596), ("rdma_faa", 3637), ("rdma_read", 16725),
            ("rdma_rpc", 21), ("rdma_write", 12387),
        ],
    },
}


@pytest.mark.parametrize("case", ["plain", "faults"])
def test_seeded_run_digest_is_unchanged(case):
    assert _run(DROPS if case == "faults" else None) == EXPECTED[case]
