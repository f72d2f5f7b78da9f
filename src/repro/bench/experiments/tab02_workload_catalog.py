"""Table 2: the real-world workload catalog (synthetic stand-ins)."""

from __future__ import annotations

from typing import Dict, Iterator

from ...workloads import WORKLOAD_CATALOG, footprint
from ..format import Verdict, claim, print_table


def run(n_requests: int = 20_000, seed: int = 1) -> Dict:
    rows = []
    for name, spec in WORKLOAD_CATALOG.items():
        trace = spec.trace(n_requests, seed=seed)
        rows.append(
            {
                "workload": name,
                "mimics": spec.family,
                "type": spec.workload_type,
                "keys": spec.n_keys,
                "footprint": footprint(trace),
            }
        )
    return {"rows": rows}


def main() -> Dict:
    result = run()
    print_table(
        "Table 2: workload catalog",
        ["workload", "mimics", "type", "key space", "footprint@20k"],
        [
            (r["workload"], r["mimics"], r["type"], r["keys"], r["footprint"])
            for r in result["rows"]
        ],
    )
    return result


def claims(result: Dict) -> Iterator[Verdict]:
    """Table 2 lists the paper's six workloads, each with a footprint that
    fits its key space."""
    rows = result["rows"]
    yield claim("six workloads", len(rows), "==", 6)
    yield claim("the paper's workload names", sorted({r["workload"] for r in rows}),
                "==", ["cloudphysics", "ibm", "twitter-compute", "twitter-storage",
                       "twitter-transient", "webmail"])
    for row in rows:
        yield (
            f"{row['workload']}: 0 < footprint <= keys",
            0 < row["footprint"] <= row["keys"],
            f"footprint {row['footprint']}, keys {row['keys']}",
        )


if __name__ == "__main__":
    main()
