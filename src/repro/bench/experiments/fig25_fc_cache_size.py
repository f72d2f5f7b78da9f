"""Figure 25: YCSB-C throughput and tail latency vs FC cache size.

Bigger client-side FC caches absorb more RDMA_FAAs, saving MN NIC message
rate: throughput climbs and p99 falls until the gains flatten at a few MB.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

from ..format import Verdict, claim, print_table
from ..scale import scaled
from ..systems import build_ditto, run_ycsb_workload

MB = 1024 * 1024


def run(
    fc_sizes_bytes: Sequence[int] = (0, MB // 10, MB, 5 * MB, 10 * MB),
    n_keys: int = 5_000,
    clients: int = 64,
    window_us: float = 10_000.0,
) -> Dict:
    rows = []
    for size in fc_sizes_bytes:
        if size == 0:
            cluster = build_ditto(2 * n_keys, clients, use_fc=False)
        else:
            cluster = build_ditto(2 * n_keys, clients, fc_capacity_bytes=size)
        measured = run_ycsb_workload(
            cluster, cluster.clients, "C", n_keys, window_us=window_us
        )
        cluster.engine.run()  # drain async posts so FAA counts are final
        rows.append(
            {
                "fc_mb": size / MB,
                "mops": measured.throughput_mops,
                "p99_us": measured.get_latency.p99(),
                "faas": cluster.counters.get("rdma_faa"),
            }
        )
    return {"rows": rows}


def main() -> Dict:
    result = run(
        n_keys=scaled(5_000, 10_000_000),
        clients=scaled(64, 256),
        window_us=scaled(10_000.0, 100_000.0),
    )
    print_table(
        "Figure 25: YCSB-C vs FC cache size",
        ["FC size (MB)", "Mops", "p99 (us)", "total FAAs"],
        [(r["fc_mb"], r["mops"], r["p99_us"], r["faas"]) for r in result["rows"]],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """More FC cache means fewer FAAs, more throughput and no worse tail;
    the gain flattens (paper: a plateau past 5 MB)."""
    rows = result["rows"]
    no_fc, second, biggest = rows[0], rows[-2], rows[-1]
    yield claim("biggest FC: fewer FAAs than none", biggest["faas"], "<",
                no_fc["faas"])
    yield claim("biggest FC: Mops >= none", biggest["mops"], ">=", no_fc["mops"])
    yield claim("biggest FC: p99 <= 1.05 x none", biggest["p99_us"], "<=",
                no_fc["p99_us"] * 1.05)
    yield claim("biggest FC: Mops <= 1.15 x second biggest", biggest["mops"],
                "<=", second["mops"] * 1.15)


if __name__ == "__main__":
    main()
