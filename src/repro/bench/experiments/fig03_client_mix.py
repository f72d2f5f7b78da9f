"""Figure 3: hit rates when compute shifts between two applications.

Two applications share the cache: one LRU-friendly (drifting hot set), one
LFU-friendly (stable Zipf), on disjoint key ranges.  As client threads move
from one application to the other, the mixture of access patterns — and with
it the best caching algorithm — changes: LFU wins while the LFU-friendly app
holds most threads, LRU wins at the other end.
"""

from __future__ import annotations

from typing import Dict, Iterator

from ...workloads import (
    mix_traces,
    offset_keys,
    shifting_hotspot_trace,
    zipfian_trace,
)
from ..format import Verdict, claim, print_table
from ..hitrate import compare_systems
from ..scale import scaled


def run(
    n_requests: int = 120_000,
    n_keys: int = 4096,
    capacity_frac: float = 0.1,
    total_threads: int = 8,
    seed: int = 2,
) -> Dict:
    lru_app = shifting_hotspot_trace(
        n_requests, n_keys,
        working_set=max(n_keys // 12, 32), dwell=1500,
        shift=max(n_keys // 48, 8), seed=seed,
    )
    lfu_app = offset_keys(
        zipfian_trace(n_requests, n_keys, theta=1.05, seed=seed + 1), n_keys
    )
    capacity = max(int(2 * n_keys * capacity_frac), 8)
    rows = []
    for lru_threads in range(total_threads + 1):
        lfu_threads = total_threads - lru_threads
        weights = [max(lru_threads, 1e-9), max(lfu_threads, 1e-9)]
        mixed = mix_traces([lru_app, lfu_app], weights, n_requests, seed=seed + 2)
        rates = compare_systems(
            ("ditto-lru", "ditto-lfu", "ditto"), mixed, capacity, seed=seed
        )
        rows.append({"lru_threads": lru_threads, "lfu_threads": lfu_threads, **rates})
    return {"rows": rows, "capacity": capacity}


def main() -> Dict:
    result = run(n_requests=scaled(120_000, 10_000_000))
    print_table(
        "Figure 3: hit rate vs client split (LRU-app threads of 8)",
        ["LRU threads", "LFU threads", "LRU", "LFU", "Ditto"],
        [
            (r["lru_threads"], r["lfu_threads"], r["ditto-lru"], r["ditto-lfu"], r["ditto"])
            for r in result["rows"]
        ],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """The winning fixed algorithm flips with the thread split, and Ditto
    never falls materially below the worse expert at either extreme."""
    rows = result["rows"]
    all_lfu, all_lru = rows[0], rows[-1]
    yield claim("all threads on the LFU app: lfu > lru",
                all_lfu["ditto-lfu"], ">", all_lfu["ditto-lru"])
    yield claim("all threads on the LRU app: lru > lfu",
                all_lru["ditto-lru"], ">", all_lru["ditto-lfu"])
    for app, row in (("LFU", all_lfu), ("LRU", all_lru)):
        yield claim(f"all threads on the {app} app: ditto >= worse expert - 0.02",
                    row["ditto"], ">=", min(row["ditto-lru"], row["ditto-lfu"]) - 0.02)


if __name__ == "__main__":
    main()
