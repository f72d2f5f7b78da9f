"""Parameter study: eviction sample size K (paper §5.1, "Parameters").

The paper fixes K = 5 (Redis' default) and notes that K controls how
precisely sampling approximates the underlying algorithm.  This study sweeps
K: hit rate climbs steeply from K=1 (random eviction) and saturates around
the paper's default, while each eviction's READ grows by 40 bytes per extra
sample.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

from ...cachesim import SampledAdaptiveCache
from ...core.layout import SLOT_SIZE
from ...workloads import footprint, webmail_like_trace
from ..format import Verdict, claim, print_table
from ..scale import scaled


def run(
    sample_sizes: Sequence[int] = (1, 2, 3, 5, 8, 16, 32),
    n_requests: int = 80_000,
    n_keys: int = 4096,
    capacity_frac: float = 0.1,
    seed: int = 21,
) -> Dict:
    trace = webmail_like_trace(n_requests, n_keys, seed=seed)
    capacity = max(int(footprint(trace) * capacity_frac), 8)
    rows = []
    for k in sample_sizes:
        per_policy = {}
        for policy in ("lru", "lfu"):
            cache = SampledAdaptiveCache(
                capacity, policies=(policy,), sample_size=k, seed=seed
            )
            cache.access_many(trace)
            per_policy[policy] = cache.hit_rate()
        rows.append(
            {
                "k": k,
                "lru": per_policy["lru"],
                "lfu": per_policy["lfu"],
                "sample_read_bytes": k * SLOT_SIZE,
            }
        )
    return {"rows": rows, "capacity": capacity}


def main() -> Dict:
    result = run(n_requests=scaled(80_000, 7_800_000))
    print_table(
        "Parameter study: eviction sample size",
        ["K", "LRU hit", "LFU hit", "sample READ bytes"],
        [(r["k"], r["lru"], r["lfu"], r["sample_read_bytes"]) for r in result["rows"]],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """K = 1 is random eviction and LRU's precision grows with K, K = 5
    already capturing most of it; LFU peaks at small K, where sampling noise
    protects freshly inserted (freq-1) objects from precise LFU."""
    rows = {r["k"]: r for r in result["rows"]}
    top = max(rows)
    yield claim(f"lru: K={top} > K=1", rows[top]["lru"], ">", rows[1]["lru"])
    top_lru = rows[top]["lru"]
    yield claim(f"lru: K=5 > K=1 + 0.6 x (K={top} - K=1)", rows[5]["lru"], ">",
                rows[1]["lru"] + 0.6 * (top_lru - rows[1]["lru"]))
    yield claim(f"lfu: K=5 > K={top}", rows[5]["lfu"], ">", rows[top]["lfu"])
    best_lfu_k = max(rows, key=lambda k: rows[k]["lfu"])
    yield claim("lfu's best K <= 8", best_lfu_k, "<=", 8)


if __name__ == "__main__":
    main()
