"""Figure 15: throughput vs MN-side CPU cores (Ditto, CliqueMap, Redis).

Ditto uses one-sided verbs only, so its throughput is flat in MN compute;
CliqueMap needs tens of extra server cores to approach it (and stays behind
on write-heavy YCSB-A); Redis — running *on* those MN cores — is bottlenecked
by the hottest shard under Zipfian skew.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

from ...baselines import CliqueMapCluster, RedisCluster
from ..format import Verdict, claim, print_table
from ..runner import Feed, Harness, make_value, pack_key
from ..scale import scaled
from ..systems import build_ditto, run_ycsb_workload
from ...workloads import make_ycsb


def _redis_mops(cores: int, workload: str, n_keys: int, clients: int, window_us: float) -> float:
    cluster = RedisCluster(initial_nodes=cores)
    cluster.load({pack_key(i): make_value(232) for i in range(n_keys)})
    cluster.add_clients(clients)
    harness = Harness(cluster.engine, value_size=232)
    feeds = [
        Feed(*make_ycsb(workload, n_keys=n_keys, seed=50 + i).arrays(8_000))
        for i in range(clients)
    ]
    harness.launch_all(cluster.clients, feeds)
    harness.warm(window_us)
    return harness.measure(window_us).throughput_mops


def run(
    workloads: Sequence[str] = ("A", "C"),
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
    n_keys: int = 5_000,
    clients: int = 64,
    window_us: float = 10_000.0,
) -> Dict:
    results: Dict[str, Dict[str, Dict[int, float]]] = {}
    for workload in workloads:
        per_system: Dict[str, Dict[int, float]] = {"ditto": {}, "cliquemap": {}, "redis": {}}
        ditto = build_ditto(2 * n_keys, clients)
        ditto_mops = run_ycsb_workload(
            ditto, ditto.clients, workload, n_keys, window_us=window_us
        ).throughput_mops
        for cores in core_counts:
            per_system["ditto"][cores] = ditto_mops  # one-sided: flat by design
            cm = CliqueMapCluster(policy="lru", capacity_objects=2 * n_keys,
                                  num_clients=clients, server_cores=cores)
            per_system["cliquemap"][cores] = run_ycsb_workload(
                cm, cm.clients, workload, n_keys, window_us=window_us
            ).throughput_mops
            per_system["redis"][cores] = _redis_mops(
                cores, workload, n_keys, clients, window_us
            )
        results[workload] = per_system
    return {"results": results, "core_counts": list(core_counts)}


def main() -> Dict:
    result = run(
        n_keys=scaled(5_000, 10_000_000),
        clients=scaled(64, 256),
        core_counts=scaled((1, 2, 4, 8, 16), (1, 4, 8, 16, 32, 64)),
        window_us=scaled(10_000.0, 100_000.0),
    )
    cores = result["core_counts"]
    for workload, by_system in result["results"].items():
        print_table(
            f"Figure 15: YCSB-{workload} throughput (Mops) vs MN cores",
            ["system"] + [str(c) for c in cores],
            [
                [system] + [by_system[system][c] for c in cores]
                for system in ("ditto", "cliquemap", "redis")
            ],
        )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """Ditto is independent of MN compute; CliqueMap needs many extra cores
    to climb toward it; Redis gains with cores but stays below Ditto."""
    cores = result["core_counts"]
    low, high = str(cores[0]), str(cores[-1])
    for workload, by_system in result["results"].items():
        ditto, cm, redis = (by_system[s] for s in ("ditto", "cliquemap", "redis"))
        distinct = {round(v, 6) for v in ditto.values()}
        yield (f"{workload}: ditto flat over cores", len(distinct) == 1,
               f"distinct Mops {sorted(distinct)}")
        yield claim(f"{workload}: cliquemap at {high} cores > 1.5 x at {low}",
                    cm[high], ">", cm[low] * 1.5)
        yield claim(f"{workload}: ditto > 2 x cliquemap at {low} cores",
                    ditto[low], ">", 2 * cm[low])
        yield claim(f"{workload}: redis at {high} cores >= at {low}",
                    redis[high], ">=", redis[low])
        yield claim(f"{workload}: ditto > redis at {high} cores",
                    ditto[high], ">", redis[high])


if __name__ == "__main__":
    main()
