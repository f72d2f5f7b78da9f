"""The fault-recovery experiment: shape, determinism, parallelism."""

from repro.bench.experiments.extra_fault_recovery import run
from repro.bench.parallel import ExperimentJob, ParallelRunner
from repro.bench.runner import phase_mean
from repro.sim import FaultPlan, NodeOutage

RUN = "repro.bench.experiments.extra_fault_recovery:run"

#: Small enough for CI, big enough that the outage phase has samples.
TINY = dict(
    n_keys=512,
    num_clients=4,
    phase_us=12_000.0,
    window_us=4_000.0,
    requests_per_client=2_000,
    seed=11,
)


def tiny_plan(phase_us=TINY["phase_us"]):
    return FaultPlan(
        outages=(NodeOutage(node_id=1, start_us=phase_us, end_us=2 * phase_us),)
    ).to_dict()


def test_throughput_dips_then_recovers():
    result = run(**TINY, plan_dict=tiny_plan())
    timeline = result["timeline"]
    assert {r["phase"] for r in timeline} == {"healthy", "outage", "recovered"}
    healthy = phase_mean(timeline, "healthy")
    outage = phase_mean(timeline, "outage")
    recovered = phase_mean(timeline, "recovered")
    assert outage < 0.5 * healthy  # the dip
    assert recovered > 0.8 * healthy  # the recovery
    assert phase_mean(timeline, "outage", "hit_rate") < phase_mean(
        timeline, "healthy", "hit_rate"
    )
    assert result["counters"]["fault_node_unavailable"] > 0


def test_run_is_deterministic():
    a = run(**TINY, plan_dict=tiny_plan())
    b = run(**TINY, plan_dict=tiny_plan())
    assert a == b


def test_parallel_run_matches_serial(tmp_path):
    params = {**TINY, "plan_dict": tiny_plan()}
    jobs = [ExperimentJob("extra-faults", RUN, params=params)]
    serial = ParallelRunner(workers=1).run(jobs)
    pooled = ParallelRunner(workers=2).run(jobs)
    assert serial[0].result == pooled[0].result
