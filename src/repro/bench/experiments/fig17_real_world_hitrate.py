"""Figure 17: hit rates on real-world-like workloads across cache sizes.

For every workload, Ditto's hit rate should track the better of
Ditto-LRU/Ditto-LFU at each cache size (sizes are fractions of the
workload's footprint, as in the paper).
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

from ...workloads import WORKLOAD_CATALOG, footprint
from ..format import Verdict, claim, print_table
from ..hitrate import compare_systems
from ..scale import scaled

SYSTEMS = ("ditto", "ditto-lru", "ditto-lfu", "cm-lru", "cm-lfu")


def run(
    workload_names: Sequence[str] = (
        "webmail", "ibm", "cloudphysics", "twitter-transient", "twitter-storage",
    ),
    size_fracs: Sequence[float] = (0.05, 0.1, 0.2, 0.4),
    n_requests: int = 80_000,
    systems: Sequence[str] = SYSTEMS,
    seed: int = 6,
) -> Dict:
    results: Dict[str, Dict[float, Dict[str, float]]] = {}
    for name in workload_names:
        spec = WORKLOAD_CATALOG[name]
        trace = spec.trace(n_requests, seed=seed)
        total = footprint(trace)
        results[name] = {}
        for frac in size_fracs:
            capacity = max(int(total * frac), 8)
            results[name][frac] = compare_systems(systems, trace, capacity, seed=seed)
    return {"results": results, "size_fracs": list(size_fracs)}


def main() -> Dict:
    result = run(n_requests=scaled(80_000, 10_000_000))
    for workload, by_frac in result["results"].items():
        print_table(
            f"Figure 17: {workload} hit rates vs cache size",
            ["cache frac"] + list(next(iter(by_frac.values())).keys()),
            [[frac] + list(rates.values()) for frac, rates in by_frac.items()],
        )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """Ditto is bounded by its experts at every size and, averaged over
    sizes, clears their midpoint."""
    margin = 0.03
    for workload, by_frac in result["results"].items():
        for frac, rates in by_frac.items():
            experts = (rates["ditto-lru"], rates["ditto-lfu"])
            yield claim(f"{workload} at {frac}: ditto >= worse expert - 0.03",
                        rates["ditto"], ">=", min(experts) - margin)
            yield claim(f"{workload} at {frac}: ditto <= better expert + 0.03",
                        rates["ditto"], "<=", max(experts) + margin)
        ditto_mean = sum(r["ditto"] for r in by_frac.values()) / len(by_frac)
        mid_mean = sum(
            (r["ditto-lru"] + r["ditto-lfu"]) / 2 for r in by_frac.values()
        ) / len(by_frac)
        yield claim(f"{workload}: mean ditto >= mean expert midpoint - 0.03",
                    ditto_mean, ">=", mid_mean - margin)


if __name__ == "__main__":
    main()
