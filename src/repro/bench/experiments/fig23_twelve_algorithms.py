"""Figure 23 + Table 3: all 12 caching algorithms running on Ditto.

For each integrated algorithm: DM throughput and hit rate on the
webmail-like workload, plus the integration effort (lines of code of its
update/priority functions) and the access information it consumes.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ...core import make_policy, policy_loc
from ...workloads import footprint, webmail_like_trace
from ..format import print_table
from ..hitrate import replay
from ...cachesim import SampledAdaptiveCache
from ..scale import scaled
from ..systems import build_ditto, run_trace_workload

TABLE3_ORDER = (
    "lru", "lfu", "mru", "gds", "lirs", "fifo",
    "size", "gdsf", "lrfu", "lruk", "lfuda", "hyperbolic",
)


def run(
    algorithms: Sequence[str] = TABLE3_ORDER,
    n_requests: int = 50_000,
    n_keys: int = 4096,
    capacity_frac: float = 0.1,
    clients: int = 8,
    window_us: float = 100_000.0,
    warm_us: float = 250_000.0,
    seed: int = 15,
) -> Dict:
    trace = webmail_like_trace(n_requests, n_keys, seed=seed)
    capacity = max(int(footprint(trace) * capacity_frac), 16)
    rows = []
    for name in algorithms:
        policy = make_policy(name)
        hit = replay(
            SampledAdaptiveCache(capacity, policies=(name,), seed=seed), trace
        )
        cluster = build_ditto(capacity, clients, policies=(name,))
        measured = run_trace_workload(
            cluster,
            cluster.clients,
            trace,
            miss_penalty_us=500.0,
            warm_us=warm_us,
            window_us=window_us,
        )
        rows.append(
            {
                "algorithm": name,
                "mops": measured.throughput_mops,
                "hit_rate": hit,
                "loc": policy_loc(policy),
                "info": "+".join(policy.info),
            }
        )
    return {"rows": rows, "capacity": capacity}


def main() -> Dict:
    result = run(n_requests=scaled(50_000, 7_800_000))
    print_table(
        "Figure 23 / Table 3: 12 caching algorithms on Ditto",
        ["algorithm", "Mops", "hit rate", "LOC", "access info"],
        [
            (r["algorithm"], r["mops"], r["hit_rate"], r["loc"], r["info"])
            for r in result["rows"]
        ],
    )
    average_loc = sum(r["loc"] for r in result["rows"]) / len(result["rows"])
    print(f"average integration effort: {average_loc:.1f} LOC")
    return result


if __name__ == "__main__":
    main()
