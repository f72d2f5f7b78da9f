"""Tests for the parallel experiment runner."""

import json
import os
import re

import pytest

from repro.bench import parallel
from repro.bench.parallel import (
    ExperimentJob,
    ParallelRunner,
    execute_job,
    jsonify,
    run_grid,
)
from repro.bench.scale import scale_name

FIG04 = "repro.bench.experiments.fig04_cache_size:run"
TINY = {"n_requests": 3000, "n_keys": 256, "size_fracs": (0.1, 0.4)}

# fig02 drives real DittoCluster instances, so traced runs produce spans.
FIG02 = "repro.bench.experiments.fig02_caching_structure_cost:run"
TINY02 = {"n_keys": 200, "client_counts": (1,), "window_us": 2000.0}


# -- jsonify ---------------------------------------------------------------


def test_jsonify_plain_types_roundtrip():
    value = {"a": 1, "b": [1.5, "x", None, True], "c": {"d": (1, 2)}}
    assert jsonify(value) == {"a": 1, "b": [1.5, "x", None, True], "c": {"d": [1, 2]}}


def test_jsonify_numpy():
    np = pytest.importorskip("numpy")
    assert jsonify(np.int64(7)) == 7
    assert jsonify(np.float64(0.5)) == 0.5
    assert jsonify(np.array([1, 2, 3])) == [1, 2, 3]


def test_jsonify_rejects_opaque_objects():
    with pytest.raises(TypeError):
        jsonify(object())


# -- execute_job -----------------------------------------------------------


def test_execute_job_runs_and_captures_stdout():
    raw = execute_job({"fn": FIG04, "params": TINY, "seed": 3})
    assert raw["stdout"] == ""  # run() prints nothing
    rows = raw["result"]["rows"]
    assert [r["cache_frac"] for r in rows] == [0.1, 0.4]


def test_execute_job_rejects_bad_fn():
    with pytest.raises(ValueError):
        execute_job({"fn": "no.colon.here", "params": {}})


def test_execute_job_says_what_replayed_where():
    history = execute_job({
        "fn": "repro.bench.experiments.extra_history_size:run",
        "params": {"history_factors": (1.0,), "n_requests": 2048,
                   "n_keys": 512},
    })
    assert history["replayed"] == {"vectorized": 2048, "scalar": 0}
    # gds's priority is no metadata column, so its cache replays scalar.
    algorithms = execute_job({
        "fn": "repro.bench.experiments.fig23_twelve_algorithms:run",
        "params": {"algorithms": ("lru", "gds"), "n_requests": 2048,
                   "n_keys": 256, "clients": 2, "window_us": 2_000.0,
                   "warm_us": 2_000.0},
    })
    assert algorithms["replayed"] == {"vectorized": 2048, "scalar": 2048}


# -- the runner ------------------------------------------------------------


def test_runner_results_in_submission_order(tmp_path):
    jobs = [
        ExperimentJob("fig04", FIG04, params=dict(TINY), seed=s)
        for s in (5, 1, 9)
    ]
    runner = ParallelRunner(workers=1)
    outcomes = runner.run(jobs)
    assert [o.job.seed for o in outcomes] == [5, 1, 9]
    assert runner.summary()["jobs"] == 3


def test_no_cache_mode_always_simulates(tmp_path):
    jobs = [ExperimentJob("fig04", FIG04, params=dict(TINY), seed=3)]
    for _ in range(2):
        runner = ParallelRunner(workers=1)
        (outcome,) = runner.run(jobs)
        assert outcome.elapsed_s > 0
        assert runner.summary() == {
            "jobs": 1,
            "workers": 1,
            "elapsed_s": runner.summary()["elapsed_s"],
        }


def test_parallel_equals_serial_byte_identical(tmp_path):
    """The acceptance bar: same seeds -> same metrics, pool or no pool."""
    jobs = [
        ExperimentJob("fig04", FIG04, params=dict(TINY), seed=s) for s in (3, 4)
    ]
    serial = ParallelRunner(workers=1).run(jobs)
    pooled = ParallelRunner(workers=2).run(jobs)
    assert json.dumps([o.result for o in serial], sort_keys=True) == json.dumps(
        [o.result for o in pooled], sort_keys=True
    )


def test_run_grid_orders_by_point_then_seed(tmp_path):
    grid = [{**TINY, "size_fracs": (f,)} for f in (0.1, 0.4)]
    outcomes = run_grid("fig04", FIG04, grid, seeds=(3, 4), workers=1)
    order = [(o.job.params["size_fracs"][0], o.job.seed) for o in outcomes]
    assert order == [(0.1, 3), (0.1, 4), (0.4, 3), (0.4, 4)]


def test_runner_rejects_bad_workers():
    with pytest.raises(ValueError):
        ParallelRunner(workers=0)


def test_one_worker_or_one_job_never_builds_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
    probes = [
        ExperimentJob(f"probe{i}", "repro.bench.scale:scale_name")
        for i in range(3)
    ]
    outcomes = ParallelRunner(workers=1).run(probes)
    assert [o.result for o in outcomes] == [scale_name()] * 3
    (one,) = ParallelRunner(workers=4).run(probes[:1])
    assert one.result == scale_name()


# -- per-job profiling (REPRO_PROFILE=1) -----------------------------------


def test_profile_writes_one_file_per_job(tmp_path, monkeypatch):
    import pstats

    monkeypatch.setenv("REPRO_PROFILE", "1")
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "profs"))
    jobs = [
        ExperimentJob("fig04", FIG04, params=dict(TINY), seed=s) for s in (3, 4)
    ]
    outcomes = ParallelRunner(workers=1).run(jobs)
    assert len(outcomes) == 2
    files = sorted((tmp_path / "profs").glob("bench_fig04_*.prof"))
    # one profile per job, named by its position: no clobbering
    assert [path.name for path in files] == [
        "bench_fig04_0.prof", "bench_fig04_1.prof"]
    for path in files:
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0


def test_profile_off_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "profs"))
    execute_job({"fn": FIG04, "params": TINY, "seed": 3})
    assert not (tmp_path / "profs").exists()


def test_profile_composes_with_pool(tmp_path, monkeypatch):
    """Profiles from spawn workers land in the same directory, distinct files."""
    import pstats

    monkeypatch.setenv("REPRO_PROFILE", "1")
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "profs"))
    jobs = [
        ExperimentJob("fig04", FIG04, params=dict(TINY), seed=s) for s in (3, 4)
    ]
    ParallelRunner(workers=2).run(jobs)
    files = sorted((tmp_path / "profs").glob("bench_fig04_*.prof"))
    assert len(files) == 2
    assert pstats.Stats(str(files[0])).total_calls > 0


# -- per-job tracing (trace_dir) --------------------------------------------


def test_trace_dir_produces_valid_traces_and_metrics(tmp_path):
    from repro.obs import validate_trace

    jobs = [ExperimentJob("fig02", FIG02, params=dict(TINY02))]
    runner = ParallelRunner(workers=1, trace_dir=str(tmp_path / "traces"))
    (outcome,) = runner.run(jobs)
    assert outcome.trace_file == os.path.join(
        str(tmp_path / "traces"), "fig02.trace.json"
    )
    with open(outcome.trace_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert validate_trace(doc) == []
    assert outcome.metrics is not None
    assert outcome.metrics["trace"]["events"] > 0
    names = {e["name"] for e in doc["traceEvents"]}
    assert "rdma.read" in names and "measure" in names


def test_trace_names_disambiguate_grid_points(tmp_path):
    jobs = [
        ExperimentJob("fig04", FIG04, params=dict(TINY), seed=s) for s in (3, 4)
    ]
    runner = ParallelRunner(workers=1, trace_dir=str(tmp_path / "traces"))
    outcomes = runner.run(jobs)
    assert [o.name for o in outcomes] == ["fig04_0", "fig04_1"]
    assert [os.path.basename(o.trace_file) for o in outcomes] == [
        "fig04_0.trace.json", "fig04_1.trace.json"]


def test_untraced_runs_have_no_metrics(tmp_path):
    jobs = [ExperimentJob("fig04", FIG04, params=dict(TINY), seed=3)]
    (outcome,) = ParallelRunner(workers=1).run(jobs)
    assert outcome.metrics is None and outcome.trace_file is None


def test_traced_result_identical_to_untraced(tmp_path):
    """Observability must not perturb the simulation itself."""
    jobs = [ExperimentJob("fig04", FIG04, params=dict(TINY), seed=3)]
    (plain,) = ParallelRunner(workers=1).run(jobs)
    (traced,) = ParallelRunner(
        workers=1, trace_dir=str(tmp_path / "traces")
    ).run(jobs)
    assert json.dumps(plain.result, sort_keys=True) == json.dumps(
        traced.result, sort_keys=True
    )
    assert plain.stdout == traced.stdout


# -- run_all CLI integration ----------------------------------------------


def test_run_all_parallel_matches_serial_output(capsys):
    from repro.bench import run_all

    assert run_all.main(["tab02", "tab02"]) == 0
    serial_out = capsys.readouterr().out
    assert run_all.main(["-j", "2", "tab02", "tab02"]) == 0
    parallel_out = capsys.readouterr().out

    def table_of(text):
        # The experiment's own lines, without harness timing/summary chrome.
        return [
            line for line in text.splitlines()
            if not line.startswith(("[", "scale:"))
        ]

    assert table_of(serial_out) == table_of(parallel_out)
    assert re.search(
        r"^\[runner: 2 jobs on 2 workers in \d+\.\ds; peak RSS \d+ MB\]$",
        parallel_out, re.M)


def test_run_all_says_what_replayed_where(capsys, monkeypatch):
    from repro.bench import run_all
    from repro.bench.experiments import extra_history_size

    monkeypatch.setattr(
        extra_history_size, "main",
        lambda: extra_history_size.run(
            history_factors=(1.0,), n_requests=2048, n_keys=512),
    )
    # A one-row stand-in cannot hold the figure's claims; they are not
    # what this test checks.
    monkeypatch.delattr(extra_history_size, "claims")
    assert run_all.main(["tab02", "extra-history"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^\[tab02: simulated in \d+\.\ds\]$", out, re.M)
    assert re.search(
        r"^\[extra-history: simulated in \d+\.\ds; "
        r"replayed 2048 vectorized, 0 scalar\]$", out, re.M)


def test_run_all_rejects_nonpositive_workers(capsys):
    from repro.bench import run_all

    for flag in ("0", "-3"):
        assert run_all.main(["-j", flag, "tab02"]) == 2
        assert "positive worker count" in capsys.readouterr().out


def test_run_all_prints_each_table_when_its_experiment_finishes(
    capsys, monkeypatch
):
    from repro.bench import run_all
    from repro.bench.experiments import fig04_cache_size

    seen_at_start = []

    def spy_main():
        seen_at_start.append(capsys.readouterr().out)
        print("fig04 table")

    monkeypatch.setattr(fig04_cache_size, "main", spy_main)
    monkeypatch.delattr(fig04_cache_size, "claims")  # the spy returns no result
    assert run_all.main(["-j", "1", "tab02", "fig04"]) == 0
    (before_fig04,) = seen_at_start
    assert "Table 2" in before_fig04
    assert "fig04 table" in capsys.readouterr().out


def test_run_all_serial_and_pooled_leave_the_same_trace_files(tmp_path, capsys):
    from repro.bench import run_all
    from repro.obs import validate_trace

    serial, pooled = tmp_path / "D", tmp_path / "D2"
    names = ["tab02", "fig04"]
    assert run_all.main(["--trace", str(serial), *names]) == 0
    assert run_all.main(
        ["-j", "2", "--trace", str(pooled), *names]
    ) == 0
    files = sorted(p.name for p in serial.iterdir())
    assert files == [
        f"{name}.{kind}.json"
        for name in sorted(names) for kind in ("metrics", "trace")
    ]
    assert sorted(p.name for p in pooled.iterdir()) == files
    for path in [*serial.glob("*.trace.json"), *pooled.glob("*.trace.json")]:
        assert validate_trace(json.loads(path.read_text())) == []


def test_run_all_gives_a_repeated_experiment_one_file_set_per_job(
    tmp_path, capsys, monkeypatch
):
    """Two runs of one experiment in one invocation leave two traces, two
    metrics snapshots and two profiles: each job's files carry its
    submission position, so the second never overwrites the first."""
    from repro.bench import run_all

    monkeypatch.setenv("REPRO_PROFILE", "1")
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "profs"))
    traces = tmp_path / "D"
    assert run_all.main(["--trace", str(traces), "tab02", "tab02"]) == 0
    out = capsys.readouterr().out
    assert sorted(p.name for p in traces.iterdir()) == [
        f"tab02_{position}.{kind}.json"
        for position in (0, 1) for kind in ("metrics", "trace")
    ]
    assert sorted(p.name for p in (tmp_path / "profs").iterdir()) == [
        "bench_tab02_0.prof", "bench_tab02_1.prof"]
    assert re.search(r"^\[tab02_1: simulated in \d+\.\ds\]$", out, re.M)
