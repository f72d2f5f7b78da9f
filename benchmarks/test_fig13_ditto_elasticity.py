"""Figure 13: Ditto under dynamic compute and memory scaling."""

from repro.bench.experiments import fig13_ditto_elasticity as exp
from repro.bench.runner import phase_mean


def test_fig13(benchmark):
    result = benchmark.pedantic(exp.main, rounds=1, iterations=1)
    timeline = result["timeline"]

    base = phase_mean(timeline, "base-compute")
    up = phase_mean(timeline, "compute-scaled-up")
    down = phase_mean(timeline, "compute-scaled-down")
    mem_up = phase_mean(timeline, "memory-scaled-up")
    mem_down = phase_mean(timeline, "memory-scaled-down")

    # Compute scaling takes effect immediately (compute carries no data):
    # throughput jumps with the added clients and returns when they leave.
    assert up > base * 1.3
    assert abs(down - base) / base < 0.25

    # Memory scale-up (a node joins the pool) does not disturb throughput.
    assert abs(mem_up - down) / down < 0.2

    # Memory scale-down live-drains a data-bearing node while traffic keeps
    # flowing: a real migration, so allow contention, but no collapse — and
    # nothing like the Redis baseline's whole-keyspace reshuffle.
    assert mem_down > down * 0.6

    # The drain completed and actually moved data at advancing epochs.
    (migration,) = result["migrations"]
    assert migration["phase"] == "done"
    assert migration["migrated_objects"] > 0
    assert migration["epoch_end"] > migration["epoch_start"]
    assert result["epoch_bumps"] >= 3

    # The very first window after compute scale-up already shows the gain —
    # "immediate", unlike Redis' minutes of migration.
    first_up = next(r for r in timeline if r["phase"] == "compute-scaled-up")
    assert first_up["mops"] > base * 1.2
