"""The fault-recovery experiment: shape, determinism, caching, parallelism."""

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


def test_cache_key_includes_the_fault_plan():
    base = ExperimentJob("extra-faults", RUN, params={**TINY, "plan_dict": tiny_plan()})
    longer = FaultPlan(
        outages=(NodeOutage(node_id=1, start_us=0.0, end_us=3 * TINY["phase_us"]),)
    ).to_dict()
    other = ExperimentJob(
        "extra-faults", RUN, params={**TINY, "plan_dict": longer}
    )
    assert base.key("quick") != other.key("quick")
    assert base.key("quick") == ExperimentJob(
        "extra-faults", RUN, params={**TINY, "plan_dict": tiny_plan()}
    ).key("quick")


def test_parallel_run_matches_serial(tmp_path):
    params = {**TINY, "plan_dict": tiny_plan()}
    jobs = [ExperimentJob("extra-faults", RUN, params=params)]
    serial = ParallelRunner(workers=1, use_cache=False).run(jobs)
    pooled = ParallelRunner(workers=2, use_cache=False).run(jobs)
    assert serial[0].result == pooled[0].result


def test_cached_replay(tmp_path):
    params = {**TINY, "plan_dict": tiny_plan()}
    jobs = [ExperimentJob("extra-faults", RUN, params=params)]
    first = ParallelRunner(workers=1, cache_dir=tmp_path).run(jobs)
    second = ParallelRunner(workers=1, cache_dir=tmp_path).run(jobs)
    assert not first[0].cached
    assert second[0].cached
    assert first[0].result == second[0].result
