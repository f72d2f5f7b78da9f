"""Figure 19: a changing workload that alternates LRU- and LFU-friendly
phases (synthesized as in LeCaR).

Only the adaptive system tracks the flips, so Ditto should beat *both*
fixed-policy variants on hit rate and penalized throughput over the whole
run.
"""

from __future__ import annotations

from typing import Dict, Iterator

from ...workloads import footprint, phase_switch_trace
from ..format import Verdict, claim, print_table
from ..hitrate import make_hit_cache, replay_windowed
from ..scale import scaled
from ..systems import build, run_trace_workload


def run(
    n_requests: int = 120_000,
    n_keys: int = 4096,
    phases: int = 4,
    capacity_frac: float = 0.1,
    clients: int = 16,
    miss_penalty_us: float = 500.0,
    window_us: float = 100_000.0,
    warm_us: float = 200_000.0,
    seed: int = 10,
) -> Dict:
    trace = phase_switch_trace(n_requests, n_keys, phases=phases, seed=seed)
    capacity = max(int(footprint(trace) * capacity_frac), 16)

    hit_rates = {}
    windowed = {}
    for system in ("ditto", "ditto-lru", "ditto-lfu"):
        cache = make_hit_cache(system, capacity, seed=seed)
        windowed[system] = replay_windowed(cache, trace, windows=2 * phases)
        hit_rates[system] = cache.hit_rate()

    throughput = {}
    for system in ("ditto", "ditto-lru", "ditto-lfu"):
        cluster = build(system, capacity, clients)
        measured = run_trace_workload(
            cluster,
            cluster.clients,
            trace,
            miss_penalty_us=miss_penalty_us,
            warm_us=warm_us,
            window_us=window_us,
        )
        throughput[system] = measured.throughput_mops
    return {
        "hit_rates": hit_rates,
        "windowed_hit_rates": windowed,
        "throughput_mops": throughput,
    }


def main() -> Dict:
    result = run(n_requests=scaled(120_000, 10_000_000))
    print_table(
        "Figure 19: changing workload (4 phases)",
        ["system", "hit rate", "penalized Mops"],
        [
            (system, result["hit_rates"][system], result["throughput_mops"][system])
            for system in result["hit_rates"]
        ],
    )
    print_table(
        "Figure 19: hit rate per half-phase window",
        ["system"] + [f"w{i}" for i in range(len(next(iter(result["windowed_hit_rates"].values()))))],
        [
            [system] + values
            for system, values in result["windowed_hit_rates"].items()
        ],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """Across the flip-flopping phases Ditto matches or beats both fixed
    experts."""
    hit, tput = result["hit_rates"], result["throughput_mops"]
    fixed_hit = (hit["ditto-lru"], hit["ditto-lfu"])
    yield claim("hit rate: ditto >= better expert - 0.02",
                hit["ditto"], ">=", max(fixed_hit) - 0.02)
    yield claim("hit rate: ditto > worse expert", hit["ditto"], ">", min(fixed_hit))
    yield claim("throughput: ditto >= 0.85 x better expert", tput["ditto"], ">=",
                max(tput["ditto-lru"], tput["ditto-lfu"]) * 0.85)


if __name__ == "__main__":
    main()
