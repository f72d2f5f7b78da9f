"""Figure 4: LRU vs LFU hit rates flip with cache size on one workload.

On the webmail-like trace the winning algorithm depends on the cache size —
the paper's argument that elastic *memory* scaling also demands adaptive
caching.
"""

from __future__ import annotations

from typing import Dict, Iterator

from ...workloads import footprint, webmail_like_trace
from ..format import Verdict, claim, print_table
from ..hitrate import compare_systems
from ..scale import scaled


def run(
    n_requests: int = 150_000,
    n_keys: int = 4096,
    size_fracs=(0.02, 0.05, 0.1, 0.2, 0.4, 0.8),
    seed: int = 3,
) -> Dict:
    trace = webmail_like_trace(n_requests, n_keys, seed=seed)
    total = footprint(trace)
    rows = []
    for frac in size_fracs:
        capacity = max(int(total * frac), 4)
        rates = compare_systems(("ditto-lru", "ditto-lfu"), trace, capacity, seed=seed)
        rows.append(
            {
                "cache_frac": frac,
                "capacity": capacity,
                "lru": rates["ditto-lru"],
                "lfu": rates["ditto-lfu"],
            }
        )
    return {"rows": rows, "footprint": total}


def main() -> Dict:
    result = run(n_requests=scaled(150_000, 7_800_000))
    print_table(
        "Figure 4: LRU vs LFU hit rate across cache sizes",
        ["cache (frac of footprint)", "objects", "LRU", "LFU"],
        [(r["cache_frac"], r["capacity"], r["lru"], r["lfu"]) for r in result["rows"]],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """The best fixed algorithm changes across cache sizes; hit rates do not
    fall as the cache grows (sanity)."""
    rows = result["rows"]
    winners = {"lru" if r["lru"] >= r["lfu"] else "lfu" for r in rows}
    yield claim("the winner changes with cache size", sorted(winners), "==",
                ["lfu", "lru"])
    for policy in ("lru", "lfu"):
        values = [r[policy] for r in rows]
        yield (
            f"{policy}: hit rate non-decreasing in cache size (0.03 slack)",
            all(b >= a - 0.03 for a, b in zip(values, values[1:])),
            " ".join(f"{v:.4f}" for v in values),
        )


if __name__ == "__main__":
    main()
