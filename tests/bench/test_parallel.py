"""Tests for the parallel experiment runner and its result cache."""

import json
import re

import pytest

from repro.bench import parallel
from repro.bench.parallel import (
    ExperimentJob,
    ParallelRunner,
    ResultCache,
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


# -- cache keys ------------------------------------------------------------


def test_job_key_is_stable():
    job = ExperimentJob("fig04", FIG04, params=dict(TINY), seed=3)
    assert job.key("quick") == job.key("quick")


def test_job_key_varies_by_every_component():
    base = ExperimentJob("fig04", FIG04, params=dict(TINY), seed=3)
    keys = {
        base.key("quick"),
        base.key("full"),
        ExperimentJob("fig05", FIG04, params=dict(TINY), seed=3).key("quick"),
        ExperimentJob("fig04", FIG04, params=dict(TINY), seed=4).key("quick"),
        ExperimentJob(
            "fig04", FIG04, params={**TINY, "n_keys": 128}, seed=3
        ).key("quick"),
    }
    assert len(keys) == 5


def test_job_key_ignores_param_order():
    a = ExperimentJob("x", FIG04, params={"a": 1, "b": 2})
    b = ExperimentJob("x", FIG04, params={"b": 2, "a": 1})
    assert a.key("quick") == b.key("quick")


# -- result cache ----------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert cache.get("deadbeef") is None
    cache.put("deadbeef", {"result": [1, 2], "stdout": "hi\n"})
    assert cache.get("deadbeef") == {"result": [1, 2], "stdout": "hi\n"}
    assert cache.clear() == 1
    assert cache.get("deadbeef") is None


def test_cache_ignores_corrupt_files(tmp_path):
    cache = ResultCache(tmp_path)
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    assert cache.get("bad") is None


def test_cache_put_is_safe_for_concurrent_writers(tmp_path, monkeypatch):
    # A second writer of the same key starts and finishes while the first
    # is mid-write: each must write its own temporary file, so both return
    # and the key holds one whole entry.
    cache = ResultCache(tmp_path)
    outer = {"result": "outer", "stdout": ""}
    inner = {"result": "inner and longer", "stdout": "x" * 64}
    real_dump = json.dump
    raced = []

    def dump_with_a_racing_put(obj, fh, **kwargs):
        if not raced:
            raced.append(True)
            cache.put("k", inner)
        real_dump(obj, fh, **kwargs)

    monkeypatch.setattr(parallel.json, "dump", dump_with_a_racing_put)
    cache.put("k", outer)
    monkeypatch.undo()
    assert raced
    assert json.loads((tmp_path / "k.json").read_text()) in (outer, inner)
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]


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
    runner = ParallelRunner(workers=1, cache_dir=tmp_path)
    outcomes = runner.run(jobs)
    assert [o.job.seed for o in outcomes] == [5, 1, 9]
    assert runner.summary()["simulated"] == 3


def test_second_run_hits_cache_with_zero_simulations(tmp_path):
    jobs = [ExperimentJob("fig04", FIG04, params=dict(TINY), seed=3)]
    first = ParallelRunner(workers=1, cache_dir=tmp_path)
    a = first.run(jobs)
    assert first.summary()["simulated"] == 1
    assert first.summary()["cached"] == 0

    second = ParallelRunner(workers=1, cache_dir=tmp_path)
    b = second.run(jobs)
    assert second.summary()["simulated"] == 0
    assert second.summary()["cached"] == 1
    assert b[0].cached and not a[0].cached
    # Replayed results are byte-identical to the simulated ones.
    assert json.dumps(a[0].result, sort_keys=True) == json.dumps(
        b[0].result, sort_keys=True
    )


def test_no_cache_mode_always_simulates(tmp_path):
    jobs = [ExperimentJob("fig04", FIG04, params=dict(TINY), seed=3)]
    for _ in range(2):
        runner = ParallelRunner(workers=1, use_cache=False)
        runner.run(jobs)
        assert runner.summary() == {
            "jobs": 1,
            "simulated": 1,
            "cached": 0,
            "workers": 1,
            "elapsed_s": runner.summary()["elapsed_s"],
        }


def test_parallel_equals_serial_byte_identical(tmp_path):
    """The acceptance bar: same seeds -> same metrics, pool or no pool."""
    jobs = [
        ExperimentJob("fig04", FIG04, params=dict(TINY), seed=s) for s in (3, 4)
    ]
    serial = ParallelRunner(workers=1, use_cache=False).run(jobs)
    pooled = ParallelRunner(workers=2, use_cache=False).run(jobs)
    assert json.dumps([o.result for o in serial], sort_keys=True) == json.dumps(
        [o.result for o in pooled], sort_keys=True
    )


def test_run_grid_orders_by_point_then_seed(tmp_path):
    grid = [{**TINY, "size_fracs": (f,)} for f in (0.1, 0.4)]
    outcomes = run_grid(
        "fig04", FIG04, grid, seeds=(3, 4), workers=1, cache_dir=tmp_path
    )
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
    outcomes = ParallelRunner(workers=1, use_cache=False).run(probes)
    assert [o.result for o in outcomes] == [scale_name()] * 3
    (one,) = ParallelRunner(workers=4, use_cache=False).run(probes[:1])
    assert one.result == scale_name()


# -- per-job profiling (REPRO_PROFILE=1) -----------------------------------


def test_profile_writes_one_file_per_job(tmp_path, monkeypatch):
    import pstats

    monkeypatch.setenv("REPRO_PROFILE", "1")
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "profs"))
    jobs = [
        ExperimentJob("fig04", FIG04, params=dict(TINY), seed=s) for s in (3, 4)
    ]
    outcomes = ParallelRunner(workers=1, use_cache=False).run(jobs)
    assert len(outcomes) == 2
    files = sorted((tmp_path / "profs").glob("bench_fig04_*.prof"))
    # one profile per job, keyed by the cache key: no clobbering
    assert len(files) == 2
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
    ParallelRunner(workers=2, use_cache=False).run(jobs)
    files = sorted((tmp_path / "profs").glob("bench_fig04_*.prof"))
    assert len(files) == 2
    assert pstats.Stats(str(files[0])).total_calls > 0


# -- per-job tracing (trace_dir) --------------------------------------------


def test_trace_dir_produces_valid_traces_and_metrics(tmp_path):
    import os

    from repro.obs import validate_trace

    jobs = [ExperimentJob("fig02", FIG02, params=dict(TINY02))]
    runner = ParallelRunner(
        workers=1, use_cache=False, trace_dir=str(tmp_path / "traces")
    )
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
    runner = ParallelRunner(
        workers=1, use_cache=False, trace_dir=str(tmp_path / "traces")
    )
    outcomes = runner.run(jobs)
    names = {o.trace_file for o in outcomes}
    assert len(names) == 2
    for name in names:
        assert "fig04_" in name  # key-suffixed, not the bare experiment name


def test_cached_replay_carries_metrics(tmp_path):
    jobs = [ExperimentJob("fig04", FIG04, params=dict(TINY), seed=3)]
    first = ParallelRunner(
        workers=1, cache_dir=tmp_path / "cache",
        trace_dir=str(tmp_path / "traces"),
    )
    (a,) = first.run(jobs)
    second = ParallelRunner(
        workers=1, cache_dir=tmp_path / "cache",
        trace_dir=str(tmp_path / "traces"),
    )
    (b,) = second.run(jobs)
    assert b.cached
    assert b.metrics == a.metrics
    assert b.trace_file == a.trace_file


def test_untraced_runs_have_no_metrics(tmp_path):
    jobs = [ExperimentJob("fig04", FIG04, params=dict(TINY), seed=3)]
    (outcome,) = ParallelRunner(workers=1, use_cache=False).run(jobs)
    assert outcome.metrics is None and outcome.trace_file is None


def test_traced_result_identical_to_untraced(tmp_path):
    """Observability must not perturb the simulation itself."""
    jobs = [ExperimentJob("fig04", FIG04, params=dict(TINY), seed=3)]
    (plain,) = ParallelRunner(workers=1, use_cache=False).run(jobs)
    (traced,) = ParallelRunner(
        workers=1, use_cache=False, trace_dir=str(tmp_path / "traces")
    ).run(jobs)
    assert json.dumps(plain.result, sort_keys=True) == json.dumps(
        traced.result, sort_keys=True
    )
    assert plain.stdout == traced.stdout


# -- run_all CLI integration ----------------------------------------------


def test_run_all_parallel_matches_serial_output(tmp_path, capsys, monkeypatch):
    from repro.bench import run_all

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert run_all.main(["tab02"]) == 0
    serial_out = capsys.readouterr().out
    assert not any(tmp_path.iterdir())  # a run without -j uses no cache

    assert run_all.main(["-j", "1", "tab02"]) == 0
    parallel_out = capsys.readouterr().out
    assert run_all.main(["-j", "1", "tab02"]) == 0
    cached_out = capsys.readouterr().out

    def table_of(text):
        # The experiment's own lines, without harness timing/summary chrome.
        return [
            line for line in text.splitlines()
            if not line.startswith(("[", "scale:"))
        ]

    assert table_of(serial_out) == table_of(parallel_out) == table_of(cached_out)
    assert "(1 simulated, 0 cached)" in parallel_out
    assert "(0 simulated, 1 cached)" in cached_out


def test_run_all_says_what_replayed_where(tmp_path, capsys, monkeypatch):
    from repro.bench import run_all
    from repro.bench.experiments import extra_history_size

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(
        extra_history_size, "main",
        lambda: extra_history_size.run(
            history_factors=(1.0,), n_requests=2048, n_keys=512),
    )
    assert run_all.main(["tab02", "extra-history"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^\[tab02: simulated in \d+\.\ds\]$", out, re.M)
    assert re.search(
        r"^\[extra-history: simulated in \d+\.\ds; "
        r"replayed 2048 vectorized, 0 scalar\]$", out, re.M)
    # A cached outcome replayed nothing in this run and prints as before.
    assert run_all.main(["-j", "1", "extra-history"]) == 0
    assert run_all.main(["-j", "1", "extra-history"]) == 0
    assert "[extra-history: cached]\n" in capsys.readouterr().out


def test_run_all_rejects_nonpositive_workers(capsys):
    from repro.bench import run_all

    for flag in ("0", "-3"):
        assert run_all.main(["-j", flag, "tab02"]) == 2
        assert "positive worker count" in capsys.readouterr().out


def test_run_all_clear_cache(tmp_path, capsys, monkeypatch):
    from repro.bench import run_all

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert run_all.main(["-j", "1", "tab02"]) == 0
    capsys.readouterr()
    assert run_all.main(["--clear-cache"]) == 0
    assert "cleared 1 cached results" in capsys.readouterr().out


def test_run_all_prints_each_table_when_its_experiment_finishes(
    tmp_path, capsys, monkeypatch
):
    from repro.bench import run_all
    from repro.bench.experiments import fig04_cache_size

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    seen_at_start = []

    def spy_main():
        seen_at_start.append(capsys.readouterr().out)
        print("fig04 table")

    monkeypatch.setattr(fig04_cache_size, "main", spy_main)
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
        ["-j", "2", "--no-cache", "--trace", str(pooled), *names]
    ) == 0
    files = sorted(p.name for p in serial.iterdir())
    assert files == [
        f"{name}.{kind}.json"
        for name in sorted(names) for kind in ("metrics", "trace")
    ]
    assert sorted(p.name for p in pooled.iterdir()) == files
    for path in [*serial.glob("*.trace.json"), *pooled.glob("*.trace.json")]:
        assert validate_trace(json.loads(path.read_text())) == []
