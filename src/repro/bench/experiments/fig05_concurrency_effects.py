"""Figure 5: concurrent clients change access patterns and hit rates.

(a) Across a corpus of workloads, the relative hit-rate change
``(h_max - h_min) / h_max`` as the client count varies from 1 to many — the
paper reports 80% of workloads with ≥60% change for LRU and the best
algorithm flipping on 36% of workloads.
(b) One example trace where LFU beats LRU at low concurrency and loses at
high concurrency.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np

from ...sim import relative_change
from ...workloads import concurrent_view, corpus, footprint, webmail_like_trace
from ..format import Verdict, claim, print_table
from ..hitrate import compare_systems, make_hit_cache, replay
from ..scale import scaled


def run(
    n_traces: int = 20,
    n_requests: int = 40_000,
    client_counts=(1, 4, 16, 64),
    capacity_frac: float = 0.1,
    seed: int = 5,
) -> Dict:
    specs = corpus(n_traces, seed=seed)
    changes = {"lru": [], "lfu": []}
    best_flips = 0
    for i, spec in enumerate(specs):
        base = spec.trace(n_requests, seed=seed + i)
        capacity = max(int(footprint(base) * capacity_frac), 4)
        per_policy: Dict[str, List[float]] = {"lru": [], "lfu": []}
        best_by_count = []
        for count in client_counts:
            view = concurrent_view(base, count, mode="random", seed=seed + count)
            for policy in ("lru", "lfu"):
                cache = make_hit_cache(f"ditto-{policy}", capacity, seed=seed)
                per_policy[policy].append(replay(cache, view))
            best_by_count.append(
                "lru" if per_policy["lru"][-1] >= per_policy["lfu"][-1] else "lfu"
            )
        for policy in ("lru", "lfu"):
            changes[policy].append(relative_change(per_policy[policy]))
        if len(set(best_by_count)) > 1:
            best_flips += 1

    # (b) example: the webmail-like trace across client counts
    example_trace = webmail_like_trace(n_requests, 4096, seed=seed)
    example_capacity = max(int(footprint(example_trace) * capacity_frac), 4)
    example_rows = []
    for count in client_counts:
        view = concurrent_view(example_trace, count, mode="random", seed=seed)
        rates = compare_systems(("ditto-lru", "ditto-lfu"), view, example_capacity, seed=seed)
        example_rows.append(
            {"clients": count, "lru": rates["ditto-lru"], "lfu": rates["ditto-lfu"]}
        )
    return {
        "cdf": {k: sorted(v) for k, v in changes.items()},
        "best_flip_fraction": best_flips / len(specs),
        "example": example_rows,
    }


def main() -> Dict:
    result = run(
        n_traces=scaled(20, 74),
        n_requests=scaled(40_000, 10_000_000),
        client_counts=scaled((1, 4, 16, 64), (1, 8, 64, 512)),
    )
    for policy in ("lru", "lfu"):
        values = result["cdf"][policy]
        print_table(
            f"Figure 5a: CDF of relative hit-rate change ({policy.upper()})",
            ["percentile", "relative change"],
            [
                (p, float(np.percentile(values, p)))
                for p in (10, 25, 50, 75, 90, 100)
            ],
        )
    print(f"best algorithm flips on {result['best_flip_fraction']:.0%} of workloads")
    print_table(
        "Figure 5b: example trace hit rates vs concurrent clients",
        ["clients", "LRU", "LFU"],
        [(r["clients"], r["lru"], r["lfu"]) for r in result["example"]],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """Concurrency moves hit rates, LRU's more than LFU's (paper: 60 % vs
    21 % change), and the best algorithm flips on some workloads."""
    lru, lfu = result["cdf"]["lru"], result["cdf"]["lfu"]
    yield claim("median lru change > 0", float(np.median(lru)), ">", 0.0)
    yield claim("mean lru change > mean lfu change",
                float(np.mean(lru)), ">", float(np.mean(lfu)))
    yield claim("the best algorithm flips on some workloads",
                result["best_flip_fraction"], ">", 0.0)


if __name__ == "__main__":
    main()
