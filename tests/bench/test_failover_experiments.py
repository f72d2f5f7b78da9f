"""The two metadata-node-crash experiments at tiny scale: the timeline each
samples, the crash of node 0's controller each arms as its drain enters
copy, and the unavailability window, drain and sweep each reports."""

from repro.bench.experiments import extra_controller_failover
from repro.bench.experiments import extra_failover_timeline

ROW = {"t_start_us", "t_s", "phase", "mops", "hit_rate", "p50_us", "p99_us"}


def phases(timeline):
    """The phase labels in order of first appearance."""
    return list(dict.fromkeys(row["phase"] for row in timeline))


def check_crash(result):
    migration = result["migration"]
    assert migration["phase"] == "done"
    # The crash lands inside the drain: it is armed as the copy begins.
    assert migration["started_us"] <= result["crash_at_us"]
    assert result["crash_at_us"] <= migration["finished_us"]
    # Node 0 answers no metadata until its controller is back.
    window = result["crash_window_us"]
    assert window <= result["metadata_unavailability_us"] < window + 500.0
    assert result["refused_rpcs"] > 0
    # No lost grant: the sweep tiles every grant, and the data survived.
    assert result["sweep"]["live_objects"] > 0
    assert "failed_ops" in result


def test_controller_failover_schema():
    result = extra_controller_failover.run(
        n_keys=512, num_clients=2, phase_us=10_000.0, window_us=5_000.0,
        requests_per_client=2_000,
    )
    timeline = result["timeline"]
    assert phases(timeline) == ["steady", "failover", "recovered"]
    assert all(set(row) == ROW for row in timeline)
    check_crash(result)
    assert result["node_ids"] == [0, 1]


def test_failover_timeline_schema():
    result = extra_failover_timeline.run(
        n_keys=512, base_clients=2, extra_clients=2, phase_us=10_000.0,
        window_us=5_000.0,
    )
    timeline = result["timeline"]
    assert phases(timeline) == [
        "base-compute", "compute-scaled-up", "compute-scaled-down",
        "memory-scaled-up", "memory-scaled-down", "recovered",
    ]
    assert all(set(row) == ROW | {"in_outage"} for row in timeline)
    check_crash(result)
    flagged = [row for row in timeline if row["in_outage"]]
    assert len(flagged) == result["outage_windows"] >= 1
    assert {row["phase"] for row in flagged} == {"memory-scaled-down"}
