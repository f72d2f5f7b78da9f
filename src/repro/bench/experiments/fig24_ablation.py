"""Figure 24: contribution of each technique (ablation on webmail, no miss
penalty).

Starting from full Ditto, disable one design at a time: the sample-friendly
hash table (SFHT), the lightweight history (LWH), the lazy weight update
(LWU), and the FC cache.  Each ablation should cost throughput — SFHT the
most (extra READs on sampling and update), then LWH (history RTTs), then
LWU + FC (saved NIC message rate).
"""

from __future__ import annotations

from typing import Dict, Iterator

from ...workloads import footprint, webmail_like_trace
from ..format import Verdict, claim, print_table
from ..scale import scaled
from ..systems import build_ditto, run_trace_workload

VARIANTS = {
    "ditto (full)": {},
    "-sfht": {"use_sfht": False},
    "-lwh": {"use_lwh": False},
    "-lwu": {"use_lwu": False},
    "-fc": {"use_fc": False},
    "-all": {"use_sfht": False, "use_lwh": False, "use_lwu": False, "use_fc": False},
}


def run(
    n_requests: int = 60_000,
    n_keys: int = 4096,
    capacity_frac: float = 0.1,
    clients: int = 32,
    window_us: float = 20_000.0,
    seed: int = 16,
) -> Dict:
    trace = webmail_like_trace(n_requests, n_keys, seed=seed)
    capacity = max(int(footprint(trace) * capacity_frac), 16)
    rows = []
    for label, flags in VARIANTS.items():
        cluster = build_ditto(capacity, clients, **flags)
        measured = run_trace_workload(
            cluster,
            cluster.clients,
            trace,
            miss_penalty_us=0.0,
            warm_us=window_us / 2,
            window_us=window_us,
        )
        rows.append(
            {
                "variant": label,
                "mops": measured.throughput_mops,
                "hit_rate": measured.hit_rate,
            }
        )
    full = rows[0]["mops"]
    for row in rows:
        row["relative"] = row["mops"] / full if full else 0.0
    return {"rows": rows, "capacity": capacity}


def main() -> Dict:
    result = run(
        n_requests=scaled(60_000, 7_800_000),
        clients=scaled(32, 64),
        window_us=scaled(20_000.0, 10_000_000.0),
    )
    print_table(
        "Figure 24: technique contributions (webmail, no miss penalty)",
        ["variant", "Mops", "relative", "hit rate"],
        [(r["variant"], r["mops"], r["relative"], r["hit_rate"]) for r in result["rows"]],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """Every ablation costs throughput (3 % noise allowance), removing all
    costs the most, and SFHT is the dominant contribution (paper: +42 %)."""
    rows = {r["variant"]: r for r in result["rows"]}
    full = rows["ditto (full)"]["mops"]
    for variant in ("-sfht", "-lwh", "-lwu", "-fc"):
        yield claim(f"{variant} <= 1.03 x full", rows[variant]["mops"], "<=",
                    full * 1.03)
    yield claim("-all < full", rows["-all"]["mops"], "<", full)
    yield claim("-sfht < 0.95 x full", rows["-sfht"]["mops"], "<", full * 0.95)
    yield claim("-all <= 1.05 x -sfht", rows["-all"]["mops"], "<=",
                rows["-sfht"]["mops"] * 1.05)


if __name__ == "__main__":
    main()
