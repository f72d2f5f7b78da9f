"""``BENCHMARK.json`` and the driver name the same metrics, every workload
the file gates is one the driver runs, and every name keeps to the
contract's alphabet."""

import re

import pytest

import run
from workloads import NAMES

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def bench():
    return run.load_benchmark()


def test_workloads_match_the_driver(bench):
    gated = [w["name"] for w in bench["workloads"]]
    assert gated == [name for name in NAMES if name in gated]
    for row in bench["workloads"]:
        assert set(row) == {"name", "why"}
        assert 0 < len(row["why"]) <= 200 and "\n" not in row["why"]


def test_names_and_units_keep_to_the_alphabet(bench):
    rows = bench["workloads"] + bench["end_to_end"] + bench["per_layer"]
    names = [row["name"] for row in rows]
    assert len(names) == len(set(names))
    for row in rows:
        assert NAME.match(row["name"]), row["name"]
        if "unit" in row:
            assert UNIT.match(row["unit"]), row
            assert row["better"] in ("higher", "lower")


def test_limits_of_the_contract(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["perf"] and bench["command"][-1] == "perf/run.py"
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    for row in bench["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in bench["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    setup = next(r for r in bench["end_to_end"] if r["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(r["bound"] for r in bench["end_to_end"])


def test_fill_refuses_a_metric_the_file_does_not_list(bench):
    with pytest.raises(KeyError):
        run._fill(bench, "per_layer", {"no.such_metric": 1.0})
    filled = run._fill(bench, "end_to_end", {"setup_s": 2.0})
    assert list(filled) == [r["name"] for r in bench["end_to_end"]]
    assert filled["setup_s"] == 2.0 and filled["ops_per_s"] == 0.0


def test_every_listed_metric_is_measured_by_some_workload(bench):
    """One traced smoke pass per family: together they produce exactly the
    per-layer names the file lists, and each passes its own checks."""
    produced = set()
    for name in ("real-write-evict", "sim-evict-trace", "hitrate-replay"):
        found = run.measure_per_layer(name, 3, 0.5, run.SMOKE_SIZE, bench)
        assert found["problems"] == [], found["problems"]
        assert found["failed"] == 0 and found["attempted"] > 0
        produced |= set(found["measured"])
        share = sum(v for k, v in found["metrics"].items()
                    if k.startswith("host_share."))
        assert share == pytest.approx(1.0)
    assert produced == {row["name"] for row in bench["per_layer"]}


def test_untraced_smoke_reports_every_end_to_end_metric(bench):
    for name in ("sim-ycsb-b", "real-shm-read-hot"):
        found = run.measure_end_to_end(name, 3, 0.5, run.SMOKE_SIZE, 2, bench)
        assert found["problems"] == []
        assert all(value > 0 for value in found["metrics"].values())
        assert found["attempted"] >= 1 and found["failed"] == 0
