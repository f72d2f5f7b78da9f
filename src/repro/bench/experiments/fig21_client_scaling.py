"""Figure 21: relative hit rates while the client count of one application
grows (webmail-like trace, normalized to Ditto-LRU).

Concurrent execution perturbs the access pattern; Ditto should stay at or
above both fixed experts across client counts.
"""

from __future__ import annotations

from typing import Dict, Iterator

from ...workloads import concurrent_view, footprint, webmail_like_trace
from ..format import Verdict, claim, print_table
from ..hitrate import compare_systems
from ..scale import scaled


def run(
    n_requests: int = 100_000,
    n_keys: int = 4096,
    capacity_frac: float = 0.1,
    client_counts=(1, 2, 4, 8, 16, 32, 64),
    seed: int = 13,
) -> Dict:
    trace = webmail_like_trace(n_requests, n_keys, seed=seed)
    capacity = max(int(footprint(trace) * capacity_frac), 8)
    rows = []
    for count in client_counts:
        view = concurrent_view(trace, count, mode="random", seed=seed + count)
        rates = compare_systems(
            ("ditto", "ditto-lru", "ditto-lfu", "cm-lru", "cm-lfu"),
            view, capacity, seed=seed,
        )
        base = max(rates["ditto-lru"], 1e-9)
        rows.append(
            {
                "clients": count,
                "relative": {k: v / base for k, v in rates.items()},
                "absolute": rates,
            }
        )
    return {"rows": rows, "capacity": capacity}


def main() -> Dict:
    result = run(n_requests=scaled(100_000, 7_800_000))
    systems = list(result["rows"][0]["relative"].keys())
    print_table(
        "Figure 21: relative hit rate vs concurrent clients (vs Ditto-LRU)",
        ["clients"] + systems,
        [[r["clients"]] + [r["relative"][s] for s in systems] for r in result["rows"]],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """At every client count Ditto stays at or above the worse fixed expert
    and near the better one."""
    for row in result["rows"]:
        rel = row["relative"]
        experts = (rel["ditto-lru"], rel["ditto-lfu"])
        yield claim(f"{row['clients']} clients: ditto >= worse expert - 0.03",
                    rel["ditto"], ">=", min(experts) - 0.03)
        yield claim(f"{row['clients']} clients: ditto <= better expert + 0.08",
                    rel["ditto"], "<=", max(experts) + 0.08)


if __name__ == "__main__":
    main()
