"""Trace export: schema validity, span nesting, and hot-path inertness."""

import json

import pytest

from repro.core.cache import DittoCache
from repro.obs import (
    FAULT_TID_BASE,
    Observability,
    SpanTracer,
    activate,
    chrome_document,
    current,
    deactivate,
    validate_trace,
)
from repro.sim import Engine


@pytest.fixture(autouse=True)
def _clean_runtime():
    deactivate()
    yield
    deactivate()


def run_cache_ops(n=150):
    cache = DittoCache(capacity_objects=128, num_clients=2, seed=7)
    for i in range(n):
        cache.set(f"key-{i % 64}", b"v" * 48)
        cache.get(f"key-{i % 96}")
    return cache


class TestSpanTracer:
    def test_spans_land_on_process_lanes(self):
        engine = Engine()
        tracer = SpanTracer(engine, pid=3, label="test")

        def worker():
            t0 = engine.now
            yield 5.0
            tracer.complete("work", "test", t0, {"n": 1})

        engine.run_process(worker(), name="w1")
        events = list(tracer.chrome_events())
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 1
        span = spans[0]
        assert span["pid"] == 3 and span["tid"] >= 1
        assert span["ts"] == 0.0 and span["dur"] == 5.0
        assert span["args"] == {"n": 1}
        lanes = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lanes[span["tid"]] == "w1"

    def test_outside_process_is_lane_zero(self):
        engine = Engine()
        tracer = SpanTracer(engine)
        tracer.instant("marker", "test")
        event = [e for e in tracer.chrome_events() if e["ph"] == "i"][0]
        assert event["tid"] == 0
        assert event["s"] == "t"

    def test_max_events_cap_counts_drops(self):
        engine = Engine()
        tracer = SpanTracer(engine, max_events=2)
        for _ in range(5):
            tracer.instant("x", "t")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3


class TestValidate:
    def test_accepts_nested_spans(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "outer", "ts": 0, "dur": 10, "pid": 0, "tid": 1},
            {"ph": "X", "name": "inner", "ts": 2, "dur": 3, "pid": 0, "tid": 1},
            {"ph": "X", "name": "after", "ts": 6, "dur": 4, "pid": 0, "tid": 1},
        ]}
        assert validate_trace(doc) == []

    def test_rejects_partial_overlap(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "a", "ts": 0, "dur": 10, "pid": 0, "tid": 1},
            {"ph": "X", "name": "b", "ts": 5, "dur": 10, "pid": 0, "tid": 1},
        ]}
        problems = validate_trace(doc)
        assert len(problems) == 1 and "without nesting" in problems[0]

    def test_overlap_on_other_lane_is_fine(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "a", "ts": 0, "dur": 10, "pid": 0, "tid": 1},
            {"ph": "X", "name": "b", "ts": 5, "dur": 10, "pid": 0, "tid": 2},
        ]}
        assert validate_trace(doc) == []

    def test_rejects_missing_fields_and_bad_dur(self):
        doc = {"traceEvents": [
            {"ph": "X", "ts": 0, "pid": 0, "tid": 1},            # no name
            {"ph": "X", "name": "n", "ts": 0, "pid": 0, "tid": 1},  # no dur
        ]}
        assert len(validate_trace(doc)) == 2

    def test_rejects_non_list(self):
        assert validate_trace({}) == ["traceEvents missing or not a list"]


class TestClusterTracing:
    def test_trace_is_valid_and_loadable(self, tmp_path):
        obs = activate(Observability())
        cache = run_cache_ops()
        deactivate()
        doc = obs.chrome_document()
        assert validate_trace(doc) == []
        # round-trip through JSON exactly as chrome://tracing would load it
        path = tmp_path / "t.trace.json"
        obs.export_chrome(path)
        loaded = json.loads(path.read_text())
        assert validate_trace(loaded) == []
        assert loaded["displayTimeUnit"] == "ms"
        names = {e["name"] for e in loaded["traceEvents"]}
        assert {"op.get", "op.set", "rdma.read", "rdma.cas"} <= names
        assert cache.stats()["hits"] > 0

    def test_rpc_spans_nest_inside_verbs(self):
        obs = activate(Observability())
        run_cache_ops(40)
        deactivate()
        doc = obs.chrome_document()
        by_name = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                by_name.setdefault(e["name"], []).append(e)
        # every controller RPC span is contained in some rdma.rpc span
        for rpc in by_name.get("rpc.alloc_segment", []):
            assert any(
                outer["ts"] <= rpc["ts"]
                and rpc["ts"] + rpc["dur"] <= outer["ts"] + outer["dur"] + 1e-6
                and outer["tid"] == rpc["tid"]
                for outer in by_name["rdma.rpc"]
            )

    def test_inert_without_hub(self):
        assert current() is None
        cache = run_cache_ops(30)
        assert cache.cluster.tracer is None
        assert cache.cluster.obs is None
        assert cache.cluster.clients[0].ep.tracer is None
        assert cache.cluster.controller.tracer is None

    def test_same_results_with_and_without_obs(self):
        plain = run_cache_ops().stats()
        activate(Observability())
        traced = run_cache_ops().stats()
        deactivate()
        assert plain == traced

    def test_fault_windows_get_own_lanes(self):
        from repro.core.cache import DittoCluster
        from repro.sim.faults import DropWindow, FaultPlan

        obs = activate(Observability())
        plan = FaultPlan(
            drops=(DropWindow(0.0, 50.0), DropWindow(25.0, 80.0)),
        )
        DittoCluster(capacity_objects=64, num_clients=1, faults=plan)
        deactivate()
        doc = obs.chrome_document()
        assert validate_trace(doc) == []
        fault_spans = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "fault.drop"
        ]
        assert len(fault_spans) == 2
        tids = {e["tid"] for e in fault_spans}
        assert len(tids) == 2 and all(t >= FAULT_TID_BASE for t in tids)


class TestObservabilityHub:
    def test_bind_reuses_tracer_per_engine(self):
        obs = Observability()
        e1, e2 = Engine(), Engine()
        t1 = obs.bind(e1, "a")
        assert obs.bind(e1, "a") is t1
        t2 = obs.bind(e2, "b")
        assert t2.pid != t1.pid
        assert obs.tracer_for(e2) is t2
        assert obs.tracer_for(Engine()) is None

    def test_env_activation(self, monkeypatch, tmp_path):
        import repro.obs.observer as observer

        monkeypatch.setattr(observer, "_current", None)
        monkeypatch.setattr(observer, "_env_checked", False)
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "tr"))
        obs = observer.current()
        assert obs is not None
        assert observer.current() is obs
        observer.deactivate()
        monkeypatch.setattr(observer, "_env_checked", False)
        monkeypatch.delenv("REPRO_TRACE")
        assert observer.current() is None
