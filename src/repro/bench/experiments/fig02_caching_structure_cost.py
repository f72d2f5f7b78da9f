"""Figure 2: the cost of maintaining caching data structures on DM.

KVC (one lock-protected LRU list), KVC-S (32 sharded lists + 5 µs backoff),
and a plain KVS run read-only YCSB-C.  Expected shapes: (a) with one client,
KVC/KVC-S throughput is a fraction of KVS and tail latency several times
higher (extra verbs on the critical path); (b) with many clients, KVC
collapses under lock-fail CAS retries that exhaust the MN NIC, KVC-S decays
more mildly, KVS keeps scaling.
"""

from __future__ import annotations

from typing import Dict, Iterator

from ..format import Verdict, claim, print_table
from ..scale import scaled
from ..systems import build, run_ycsb_workload


def run(
    n_keys: int = 5_000,
    client_counts=(1, 8, 32, 64, 128),
    window_us: float = 10_000.0,
) -> Dict:
    single: Dict[str, Dict[str, float]] = {}
    multi: Dict[str, Dict[int, float]] = {"kvs": {}, "kvc": {}, "kvc-s": {}}
    for system in ("kvs", "kvc", "kvc-s"):
        capacity = (2 if system == "kvs" else 4) * n_keys
        for count in client_counts:
            cluster = build(system, capacity, count)
            result = run_ycsb_workload(
                cluster, cluster.clients, "C", n_keys, window_us=window_us
            )
            multi[system][count] = result.throughput_mops
            if count == 1:
                single[system] = {
                    "mops": result.throughput_mops,
                    "p50_us": result.get_latency.median(),
                    "p99_us": result.get_latency.p99(),
                }
    return {"single_client": single, "multi_client": multi, "client_counts": list(client_counts)}


def main() -> Dict:
    result = run(
        n_keys=scaled(5_000, 1_000_000),
        window_us=scaled(10_000.0, 200_000.0),
    )
    print_table(
        "Figure 2a: single-client performance",
        ["system", "Mops", "p50 (us)", "p99 (us)"],
        [
            (name, row["mops"], row["p50_us"], row["p99_us"])
            for name, row in result["single_client"].items()
        ],
    )
    counts = result["client_counts"]
    print_table(
        "Figure 2b: multi-client throughput (Mops)",
        ["system"] + [str(c) for c in counts],
        [
            [name] + [result["multi_client"][name][c] for c in counts]
            for name in ("kvs", "kvc", "kvc-s")
        ],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """(a) List maintenance costs one client throughput and tail latency;
    (b) under many clients KVC collapses on its lock, KVC-S holds up better
    and KVS scales far above both."""
    single, multi = result["single_client"], result["multi_client"]
    counts = result["client_counts"]
    top, mid = str(counts[-1]), str(counts[len(counts) // 2])
    yield claim("1 client: kvs > 2 x kvc Mops",
                single["kvs"]["mops"], ">", 2 * single["kvc"]["mops"])
    yield claim("1 client: kvc p99 > 2 x kvs p99",
                single["kvc"]["p99_us"], ">", 2 * single["kvs"]["p99_us"])
    yield claim(f"{top} clients: kvs > 4 x kvc", multi["kvs"][top], ">",
                4 * multi["kvc"][top])
    yield claim(f"{top} clients: kvs > 2 x kvc-s", multi["kvs"][top], ">",
                2 * multi["kvc-s"][top])
    yield claim(f"{top} clients: kvc-s > kvc", multi["kvc-s"][top], ">",
                multi["kvc"][top])
    yield claim(f"kvc at {top} clients < 2 x at {mid}", multi["kvc"][top], "<",
                multi["kvc"][mid] * 2)


if __name__ == "__main__":
    main()
