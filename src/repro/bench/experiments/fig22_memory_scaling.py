"""Figure 22: hit rate while the cache's memory is grown at runtime.

The cache is resized mid-run through a schedule of footprint fractions
(elastic memory on DM: no migration, just a budget change).  Ditto should
track whichever expert the current size favours.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from ...workloads import footprint, webmail_like_trace
from ..format import Verdict, claim, print_table
from ..hitrate import make_hit_cache
from ..scale import scaled


def run(
    n_requests: int = 160_000,
    n_keys: int = 4096,
    size_schedule=(0.05, 0.1, 0.2, 0.3, 0.4),
    seed: int = 14,
) -> Dict:
    trace = webmail_like_trace(n_requests, n_keys, seed=seed)
    total = footprint(trace)
    segments = np.array_split(np.asarray(trace), len(size_schedule))
    rows = []
    caches = {
        system: make_hit_cache(system, max(int(total * size_schedule[0]), 8), seed=seed)
        for system in ("ditto", "ditto-lru", "ditto-lfu")
    }
    for frac, segment in zip(size_schedule, segments):
        capacity = max(int(total * frac), 8)
        row = {"cache_frac": frac, "capacity": capacity}
        for system, cache in caches.items():
            cache.resize(capacity)
            h0, m0 = cache.hits, cache.misses
            cache.access_many(segment)
            seen = cache.hits + cache.misses - h0 - m0
            row[system] = (cache.hits - h0) / seen if seen else 0.0
        rows.append(row)
    return {"rows": rows, "footprint": total}


def main() -> Dict:
    result = run(n_requests=scaled(160_000, 7_800_000))
    print_table(
        "Figure 22: hit rate under dynamically growing cache sizes",
        ["cache frac", "objects", "Ditto", "Ditto-LRU", "Ditto-LFU"],
        [
            (r["cache_frac"], r["capacity"], r["ditto"], r["ditto-lru"], r["ditto-lfu"])
            for r in result["rows"]
        ],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """Ditto adapts to the size-dependent best algorithm, and bigger caches
    help (sanity)."""
    rows = result["rows"]
    for row in rows:
        yield claim(f"cache {row['cache_frac']}: ditto >= worse expert - 0.03",
                    row["ditto"], ">=", min(row["ditto-lru"], row["ditto-lfu"]) - 0.03)
    yield claim("largest cache: ditto > smallest cache's",
                rows[-1]["ditto"], ">", rows[0]["ditto"])


if __name__ == "__main__":
    main()
