"""Figure 20: relative hit rates as client threads shift between an
LRU-patterned and an LFU-patterned application (normalized to Ditto-LRU).

Ditto should match or beat Ditto-LRU at every mix: above it when the
LFU-friendly application dominates, converging to it as the LRU portion
grows.
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
    n_requests: int = 100_000,
    n_keys: int = 4096,
    capacity_frac: float = 0.1,
    lru_portions=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    seed: int = 12,
) -> Dict:
    lru_app = shifting_hotspot_trace(
        n_requests, n_keys, working_set=max(n_keys // 12, 32),
        dwell=1500, shift=max(n_keys // 48, 8), seed=seed,
    )
    lfu_app = offset_keys(
        zipfian_trace(n_requests, n_keys, theta=1.05, seed=seed + 1), n_keys
    )
    capacity = max(int(2 * n_keys * capacity_frac), 8)
    rows = []
    for portion in lru_portions:
        weights = [max(portion, 1e-9), max(1.0 - portion, 1e-9)]
        mixed = mix_traces([lru_app, lfu_app], weights, n_requests, seed=seed + 3)
        rates = compare_systems(("ditto", "ditto-lru", "ditto-lfu"), mixed, capacity, seed=seed)
        base = max(rates["ditto-lru"], 1e-9)
        rows.append(
            {
                "lru_portion": portion,
                "ditto": rates["ditto"] / base,
                "ditto-lru": 1.0,
                "ditto-lfu": rates["ditto-lfu"] / base,
                "absolute": rates,
            }
        )
    return {"rows": rows}


def main() -> Dict:
    result = run(n_requests=scaled(100_000, 7_800_000))
    print_table(
        "Figure 20: relative hit rate vs LRU-application client portion",
        ["LRU portion", "Ditto", "Ditto-LRU", "Ditto-LFU"],
        [
            (r["lru_portion"], r["ditto"], r["ditto-lru"], r["ditto-lfu"])
            for r in result["rows"]
        ],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """With no LRU clients LFU dominates and Ditto exceeds Ditto-LRU; as the
    LRU portion grows, Ditto converges to Ditto-LRU (relative hit rate 1)."""
    rows = result["rows"]
    first, last = rows[0], rows[-1]
    yield claim(f"LRU portion {first['lru_portion']}: ditto-lfu > 1",
                first["ditto-lfu"], ">", 1.0)
    yield claim(f"LRU portion {first['lru_portion']}: ditto > 1",
                first["ditto"], ">", 1.0)
    yield claim(f"LRU portion {last['lru_portion']}: ditto-lfu < 1",
                last["ditto-lfu"], "<", 1.0)
    yield claim(f"LRU portion {last['lru_portion']}: ditto > ditto-lfu",
                last["ditto"], ">", last["ditto-lfu"])
    for row in rows:
        yield claim(f"LRU portion {row['lru_portion']}: ditto >= min(1, ditto-lfu) - 0.05",
                    row["ditto"], ">=", min(1.0, row["ditto-lfu"]) - 0.05)


if __name__ == "__main__":
    main()
