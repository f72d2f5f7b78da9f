"""Parameter study: eviction-history size (paper §5.1, "Parameters").

The paper sets the history length equal to the cache size (following LeCaR)
and notes the tradeoff: longer histories collect more regrets (faster
adaptation) at the cost of metadata space — 40 bytes per entry in the
embedded design.  This study sweeps the history length as a multiple of the
cache size on the phase-switching workload where adaptation speed matters.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

from ...cachesim import SampledAdaptiveCache
from ...workloads import footprint, phase_switch_trace
from ..format import Verdict, claim, print_table
from ..scale import scaled

HISTORY_ENTRY_BYTES = 40


def run(
    history_factors: Sequence[float] = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0),
    n_requests: int = 100_000,
    n_keys: int = 4096,
    capacity_frac: float = 0.1,
    seed: int = 22,
) -> Dict:
    trace = phase_switch_trace(n_requests, n_keys, phases=4, seed=seed)
    capacity = max(int(footprint(trace) * capacity_frac), 8)
    rows = []
    for factor in history_factors:
        history_size = max(int(capacity * factor), 1)
        cache = SampledAdaptiveCache(
            capacity,
            policies=("lru", "lfu"),
            history_size=history_size,
            seed=seed,
        )
        cache.access_many(trace)
        rows.append(
            {
                "factor": factor,
                "history_entries": history_size,
                "hit_rate": cache.hit_rate(),
                "regrets": cache.regrets,
                "metadata_bytes": history_size * HISTORY_ENTRY_BYTES,
            }
        )
    return {"rows": rows, "capacity": capacity}


def main() -> Dict:
    result = run(n_requests=scaled(100_000, 7_800_000))
    print_table(
        "Parameter study: eviction history size (phase-switching workload)",
        ["history / cache", "entries", "hit rate", "regrets", "metadata bytes"],
        [
            (r["factor"], r["history_entries"], r["hit_rate"], r["regrets"],
             r["metadata_bytes"])
            for r in result["rows"]
        ],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """More history collects more regrets, at metadata linear in its
    length."""
    rows = result["rows"]
    yield claim("longest history: more regrets than shortest",
                rows[-1]["regrets"], ">", rows[0]["regrets"])
    yield claim("longest history: more metadata than shortest",
                rows[-1]["metadata_bytes"], ">", rows[0]["metadata_bytes"])


if __name__ == "__main__":
    main()
