"""Figure 18: Ditto vs the best/worst fixed expert over a workload corpus.

Hit rates normalized over random eviction, reported as box-plot quartiles
across the corpus.  The paper's claim: Ditto's box clears
min(Ditto-LRU, Ditto-LFU) and approaches max(Ditto-LRU, Ditto-LFU).
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np

from ...workloads import corpus, footprint
from ..format import Verdict, claim, print_table
from ..hitrate import make_hit_cache, replay
from ..scale import scaled


def run(
    n_traces: int = 33,
    n_requests: int = 40_000,
    capacity_frac: float = 0.1,
    seed: int = 8,
) -> Dict:
    relative = {"ditto": [], "max_expert": [], "min_expert": []}
    for i, spec in enumerate(corpus(n_traces, seed=seed)):
        trace = spec.trace(n_requests, seed=seed + i)
        capacity = max(int(footprint(trace) * capacity_frac), 8)
        random_rate = replay(make_hit_cache("random", capacity, seed=seed), trace)
        random_rate = max(random_rate, 1e-6)
        lru = replay(make_hit_cache("ditto-lru", capacity, seed=seed), trace)
        lfu = replay(make_hit_cache("ditto-lfu", capacity, seed=seed), trace)
        ditto = replay(make_hit_cache("ditto", capacity, seed=seed), trace)
        relative["ditto"].append(ditto / random_rate)
        relative["max_expert"].append(max(lru, lfu) / random_rate)
        relative["min_expert"].append(min(lru, lfu) / random_rate)
    return {"relative": relative}


def quartiles(values: List[float]) -> Dict[str, float]:
    arr = np.asarray(values)
    return {
        "min": float(arr.min()),
        "q1": float(np.percentile(arr, 25)),
        "median": float(np.percentile(arr, 50)),
        "q3": float(np.percentile(arr, 75)),
        "max": float(arr.max()),
    }


def main() -> Dict:
    result = run(n_requests=scaled(40_000, 10_000_000))
    rows = []
    for name, values in result["relative"].items():
        q = quartiles(values)
        rows.append((name, q["min"], q["q1"], q["median"], q["q3"], q["max"]))
    print_table(
        "Figure 18: hit rate relative to random eviction (box plot quartiles)",
        ["series", "min", "q1", "median", "q3", "max"],
        rows,
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """On median every series beats random eviction, and Ditto exceeds the
    worse expert and approaches the better."""
    relative = result["relative"]
    ditto = float(np.median(relative["ditto"]))
    best = float(np.median(relative["max_expert"]))
    worst = float(np.median(relative["min_expert"]))
    yield claim("median: worse expert > random eviction", worst, ">", 1.0)
    yield claim("median: ditto > worse expert", ditto, ">", worst)
    yield claim("median: ditto > better expert - 0.6 x expert gap",
                ditto, ">", best - 0.6 * (best - worst))


if __name__ == "__main__":
    main()
