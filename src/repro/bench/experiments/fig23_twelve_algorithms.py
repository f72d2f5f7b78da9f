"""Figure 23 + Table 3: all 12 caching algorithms running on Ditto.

For each integrated algorithm: DM throughput and hit rate on the
webmail-like workload, plus the integration effort (lines of code of its
update/priority functions) and the access information it consumes.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

from ...core import make_policy, policy_loc
from ...workloads import footprint, webmail_like_trace
from ..format import Verdict, claim, print_table
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


def claims(result: Dict) -> Iterator[Verdict]:
    """All twelve algorithms run, each in at most ~23 LOC (Table 3, 12.5 on
    average in the paper), and MRU is the pathological one here."""
    rows = result["rows"]
    yield claim("twelve algorithms", len(rows), "==", 12)
    for row in rows:
        name = row["algorithm"]
        yield claim(f"{name}: Mops > 0", row["mops"], ">", 0)
        yield (f"{name}: 0 <= hit rate <= 1", 0 <= row["hit_rate"] <= 1,
               f"hit rate {row['hit_rate']}")
        yield claim(f"{name}: LOC <= 25", row["loc"], "<=", 25)
    yield claim("average LOC <= 16", sum(r["loc"] for r in rows) / len(rows),
                "<=", 16)
    by_name = {r["algorithm"]: r for r in rows}
    others_best = max(r["hit_rate"] for r in rows if r["algorithm"] != "mru")
    yield claim("mru hit rate < best of the others",
                by_name["mru"]["hit_rate"], "<", others_best)


if __name__ == "__main__":
    main()
