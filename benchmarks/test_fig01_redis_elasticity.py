"""Figure 1: Redis throughput/latency during cluster scaling."""

from repro.bench.experiments import fig01_redis_elasticity as exp
from repro.bench.runner import phase_mean


def test_fig01(benchmark):
    result = benchmark.pedantic(exp.main, rounds=1, iterations=1)
    timeline = result["timeline"]
    migrations = {m["direction"]: m for m in result["migrations"]}

    # Both migrations completed and took macroscopic time.
    assert set(migrations) == {"out", "in"}
    assert migrations["out"]["duration_s"] > 0.1
    assert migrations["in"]["duration_s"] > 0.1

    small = phase_mean(timeline, "stable-small")
    large = phase_mean(timeline, "stable-large")
    during_out = phase_mean(timeline, "scale-out-migration")

    # The performance gain is delayed: during migration the cluster runs
    # below the post-scale level, and dips below (or near) the pre-scale
    # level while CPUs copy keys.
    assert large > small * 1.1
    assert during_out < large
    # Resource reclamation is delayed during scale-in: provisioned nodes stay
    # at the large count until migration finishes.
    in_mig_rows = [r for r in timeline if r["phase"] == "scale-in-migration"]
    assert in_mig_rows
    # The final window may close just after reclamation; all earlier windows
    # still hold the large node count.
    assert all(r["provisioned_nodes"] > 8 for r in in_mig_rows[:-1])
