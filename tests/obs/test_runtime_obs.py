"""Unit tests for the hub's wall clock, its shard, and repro.obs.runtime.

Covers the real-substrate failure shapes the merge must survive: shards
whose origins disagree (cross-process clock offsets), empty directories,
the partial file a SIGKILL can leave outside the atomic-rename window,
and one shard holding several tracers.  All but one test run in one
process — the multi-process path is exercised by
tests/runtime/test_obs_runtime.py.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

from repro.obs import Observability
from repro.obs import observer
from repro.obs.runtime import (
    build_digest,
    format_digest,
    load_shard,
    merge_shards,
    persist_digest,
)
from repro.obs.trace import FAULT_TID_BASE, validate_trace
from repro.runtime.chaos import CANNED_PLAN
from repro.sim import Engine
from repro.sim.faults import (
    ClientCrash,
    DropWindow,
    FaultInjector,
    FaultPlan,
    LatencySpike,
    NodeOutage,
    RpcFailure,
)


@pytest.fixture(autouse=True)
def _isolated_obs(monkeypatch):
    """Each test starts disarmed with a clean environment."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_EPOCH", raising=False)
    monkeypatch.setattr(observer, "_current", None)
    monkeypatch.setattr(observer, "_env_checked", False)


class TestWallTracer:
    """The one SpanTracer, clocked by the hub instead of an engine."""

    def test_complete_records_lane_and_nonnegative_dur(self, tmp_path):
        proc = Observability(directory=str(tmp_path), role="t")
        start = proc.now_us()
        proc.tracer.complete("op", "cat", start, tid=3, args={"k": 1})
        (event,) = [e for e in proc.tracer.chrome_events() if e["ph"] == "X"]
        assert event["tid"] == 3
        assert event["dur"] >= 0.0
        assert event["args"] == {"k": 1}

    def test_now_us_is_monotonic(self, tmp_path):
        proc = Observability(directory=str(tmp_path), role="t")
        a = proc.now_us()
        b = proc.now_us()
        assert b >= a

    def test_future_start_clamps_to_zero_dur(self, tmp_path):
        proc = Observability(directory=str(tmp_path), role="t")
        proc.tracer.complete("op", "cat", proc.now_us() + 1e9)
        (event,) = [e for e in proc.tracer.chrome_events() if e["ph"] == "X"]
        assert event["dur"] == 0.0
        assert event["tid"] == 0  # no active process to infer a lane from


class TestHub:
    """The hub's lanes and shard export."""

    def test_lanes_are_sequential_and_named_lane_memoized(self, tmp_path):
        proc = Observability(directory=str(tmp_path), role="mn0")
        a = proc.lane("conn-0")
        b = proc.lane("conn-1")
        assert b == a + 1
        h1 = proc.lane_named("harness")
        h2 = proc.lane_named("harness")
        assert h1 == h2
        assert proc.lane("conn-2") > h1

    def test_span_context_manager_records(self, tmp_path):
        proc = Observability(directory=str(tmp_path), role="mn0")
        with proc.span("launch", "phase", tid=0, args={"nodes": 2}):
            pass
        spans = [e for e in proc.tracer.chrome_events() if e["ph"] == "X"]
        assert [s["name"] for s in spans] == ["launch"]

    def test_flush_is_atomic_and_idempotent(self, tmp_path):
        proc = Observability(directory=str(tmp_path), role="mn0")
        with proc.span("a"):
            pass
        path = proc.flush()
        first = json.load(open(path))
        path2 = proc.flush()
        assert path2 == path
        assert json.load(open(path))["traceEvents"] == first["traceEvents"]
        # no temp droppings from the atomic rename
        assert all(
            not name.endswith(f".tmp.{proc.pid}")
            for name in os.listdir(tmp_path)
        )

    def test_shard_document_schema(self, tmp_path):
        proc = Observability(directory=str(tmp_path), role="mn1",
                             common_epoch_s=123.0)
        proc.registry.counter("verbs", verb="read").add(2)
        doc = proc.shard_document()
        assert doc["schema"] == observer.SHARD_SCHEMA
        assert doc["role"] == "mn1"
        assert doc["pid"] == os.getpid()
        assert doc["common_epoch_s"] == 123.0
        assert isinstance(doc["origin_epoch_s"], float)
        assert doc["metrics"]["counters"][0]["value"] == 2

    def test_role_is_sanitized_in_shard_path(self, tmp_path):
        proc = Observability(directory=str(tmp_path), role="mn0/evil role")
        assert "/" not in os.path.basename(proc.shard_path())
        assert " " not in os.path.basename(proc.shard_path())

    def test_bridge_counters_fold_at_flush(self, tmp_path):
        class FakeCounters:
            def as_dict(self):
                return {"conn_resend": 4, "rdma_read": 9}

        proc = Observability(directory=str(tmp_path), role="launcher")
        proc.registry.bridge(FakeCounters(), component="client")
        doc = proc.shard_document()
        rows = {
            (r["name"], tuple(sorted(r["labels"].items()))): r["value"]
            for r in doc["metrics"]["counters"]
        }
        assert rows[("conn_resend", (("component", "client"),))] == 4
        assert rows[("rdma_read", (("component", "client"),))] == 9


def _sim_tracer(plan):
    """The tracer of a sim injector armed with ``plan`` after binding."""
    obs = Observability()
    engine = Engine()
    injector = FaultInjector(engine)
    injector.tracer = obs.bind(engine, "sim")
    injector.load(plan)
    return injector.tracer


def _wall_tracer(plan, tmp_path):
    """A wall-clock process's tracer with ``plan`` overlaid mid-run."""
    proc = Observability(directory=str(tmp_path), role="mn1")
    proc.tracer.fault_windows(plan.to_dict(), base_ts=5e5)
    return proc.tracer


def _fault_events(tracer):
    return [e for e in tracer.chrome_events() if e.get("cat") == "fault"]


def _fault_lane_names(tracer):
    return sorted(
        e["args"]["name"] for e in tracer.chrome_events()
        if e["name"] == "thread_name" and e["tid"] >= FAULT_TID_BASE
    )


class TestFaultWindows:
    def test_windows_land_on_dedicated_lanes(self, tmp_path):
        proc = Observability(directory=str(tmp_path), role="mn0")
        plan = FaultPlan(
            drops=(DropWindow(10.0, 30.0, node_id=0),),
            outages=(NodeOutage(1, 5.0, 50.0),),
            seed=7,
        )
        proc.tracer.fault_windows(plan.to_dict(), base_ts=1000.0)
        spans = [e for e in proc.tracer.chrome_events() if e["ph"] == "X"]
        assert {s["name"]: s["ts"] for s in spans} == {
            "fault.drop": 1010.0, "fault.outage": 1005.0,
        }
        tids = {s["tid"] for s in spans}
        assert len(tids) == 2 and all(t >= FAULT_TID_BASE for t in tids)
        # A re-arm never reuses a lane an earlier overlay took.
        proc.tracer.fault_windows(plan.to_dict())
        spans = [e for e in proc.tracer.chrome_events() if e["ph"] == "X"]
        assert len({s["tid"] for s in spans}) == 4

    def test_both_substrates_name_the_canned_plan_alike(self, tmp_path):
        """One overlay, one kind -> span-name table: the sim tracer and a
        wall hub's tracer emit the same names, one lane per window."""
        sim = _sim_tracer(CANNED_PLAN)
        wall = _wall_tracer(CANNED_PLAN, tmp_path)
        windows = len(CANNED_PLAN.drops) + len(CANNED_PLAN.outages)
        for tracer in (sim, wall):
            events = _fault_events(tracer)
            assert {e["name"] for e in events} == {
                "fault.drop", "fault.outage",
            }
            assert len(events) == windows
            assert len({e["tid"] for e in events}) == windows
        assert _fault_lane_names(sim) == _fault_lane_names(wall)

    def test_every_kind_has_one_span_name(self, tmp_path):
        plan = FaultPlan(
            drops=(DropWindow(0.0, 1.0),),
            spikes=(LatencySpike(0.0, 1.0, extra_us=2.0),),
            outages=(NodeOutage(0, 0.0, 1.0),),
            rpc_failures=(RpcFailure(0.0, 1.0),),
            client_crashes=(ClientCrash(0, 0.5), ClientCrash(1, 0.7)),
        )
        for tracer in (_sim_tracer(plan), _wall_tracer(plan, tmp_path)):
            events = _fault_events(tracer)
            assert sorted(e["name"] for e in events) == [
                "fault.client_crash", "fault.client_crash",
                "fault.drop", "fault.outage", "fault.rpc_failure",
                "fault.spike",
            ]
            # Windows get a lane each; the crash instants share one.
            assert len({e["tid"] for e in events}) == 5
            json.dumps(events)


class TestShardMerge:
    def _shard(self, tmp_path, role, origin, common=None, events=(),
               pid=100):
        doc = {
            "schema": 1, "role": role, "pid": pid,
            "origin_epoch_s": origin, "common_epoch_s": common,
            "clock": "wall-us", "traceEvents": list(events),
            "dropped": 0, "metrics": {},
        }
        path = tmp_path / f"shard-{role}-{pid}.json"
        path.write_text(json.dumps(doc))
        return path

    def test_empty_directory(self, tmp_path):
        doc, info = merge_shards(str(tmp_path))
        assert doc["traceEvents"] == []
        assert info["shards"] == [] and info["skipped"] == []

    def test_partial_shard_is_skipped_not_fatal(self, tmp_path):
        self._shard(tmp_path, "mn0", 100.0, events=[
            {"ph": "X", "name": "a", "cat": "t", "ts": 0.0, "dur": 1.0,
             "pid": 0, "tid": 0},
        ])
        (tmp_path / "shard-mn1-200.json").write_text('{"traceEvents": [')
        doc, info = merge_shards(str(tmp_path))
        assert len(info["shards"]) == 1
        assert info["skipped"] == ["shard-mn1-200.json"]
        assert validate_trace(doc) == []

    def test_common_epoch_aligns_skewed_origins(self, tmp_path):
        # Two processes started 2s apart; both know the launch epoch.
        span = {"ph": "X", "name": "op", "cat": "t", "ts": 10.0,
                "dur": 5.0, "pid": 0, "tid": 1}
        self._shard(tmp_path, "launcher", 100.0, common=100.0,
                    events=[span], pid=1)
        self._shard(tmp_path, "mn0", 102.0, common=100.0,
                    events=[span], pid=2)
        doc, info = merge_shards(str(tmp_path))
        by_pid = {e["pid"]: e for e in doc["traceEvents"]
                  if e.get("ph") == "X"}
        # launcher shard: offset 0; mn0 shard: +2s in µs
        assert by_pid[0]["ts"] == pytest.approx(10.0)
        assert by_pid[1]["ts"] == pytest.approx(10.0 + 2e6)
        assert doc["otherData"]["epoch_origin_s"] == 100.0

    def test_fallback_to_min_origin_without_common_epoch(self, tmp_path):
        span = {"ph": "X", "name": "op", "cat": "t", "ts": 0.0,
                "dur": 1.0, "pid": 0, "tid": 1}
        self._shard(tmp_path, "mn0", 105.0, events=[span], pid=1)
        self._shard(tmp_path, "mn1", 101.0, events=[span], pid=2)
        doc, _info = merge_shards(str(tmp_path))
        starts = sorted(
            e["ts"] for e in doc["traceEvents"] if e.get("ph") == "X"
        )
        assert starts[0] == pytest.approx(0.0)       # earliest shard
        assert starts[1] == pytest.approx(4e6)       # +4s later start

    def test_nonmonotonic_cross_process_timestamps_still_validate(
        self, tmp_path
    ):
        # mn1 started first but its shard sorts later: events whose raw ts
        # run "backwards" across shards must still merge into a trace the
        # validator accepts (lanes are per-pid, so cross-pid order is free).
        self._shard(tmp_path, "mn0", 200.0, events=[
            {"ph": "X", "name": "late", "cat": "t", "ts": 0.0, "dur": 2.0,
             "pid": 0, "tid": 1},
        ], pid=1)
        self._shard(tmp_path, "mn1", 100.0, events=[
            {"ph": "X", "name": "early", "cat": "t", "ts": 50.0, "dur": 2.0,
             "pid": 0, "tid": 1},
        ], pid=2)
        doc, _info = merge_shards(str(tmp_path))
        assert validate_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert pids == {0, 1}

    def test_merged_pids_are_deterministic(self, tmp_path):
        self._shard(tmp_path, "mn1", 100.0, pid=9)
        self._shard(tmp_path, "mn0", 100.0, pid=5)
        self._shard(tmp_path, "launcher", 100.0, pid=7)
        _doc, info = merge_shards(str(tmp_path))
        assert [s["role"] for s in info["shards"]] == [
            "launcher", "mn0", "mn1"
        ]
        assert [s["merged_pid"] for s in info["shards"]] == [0, 1, 2]

    def test_process_names_carry_role_and_original_pid(self, tmp_path):
        proc = Observability(directory=str(tmp_path), role="mn0")
        with proc.span("a"):
            pass
        proc.flush()
        doc, _info = merge_shards(str(tmp_path))
        names = [
            e["args"]["name"] for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        ]
        assert any("mn0" in n and str(proc.pid) in n for n in names)

    def test_load_shard_rejects_foreign_files(self, tmp_path):
        good = self._shard(tmp_path, "mn0", 100.0)
        assert load_shard(str(good)) is not None
        bad = tmp_path / "shard-x-1.json"
        for payload in ('{"trunc', "[1,2,3]", '{"traceEvents": {}}',
                        '{"traceEvents": [], "origin_epoch_s": "nope"}'):
            bad.write_text(payload)
            assert load_shard(str(bad)) is None


class TestDigest:
    REPORT = {
        "ops": 5000, "failed_ops": 3, "ops_per_s": 2400.0,
        "get_p50_us": 80.0, "get_p99_us": 950.0,
        "set_p50_us": 95.0, "set_p99_us": 1100.0,
        "counters": {"conn_resend": 12, "breaker_trip": 1, "rdma_read": 99},
        "nodes": [
            {"node_id": 0, "frames": 9300, "wakeups": 3000, "sends": 3010},
            {"node_id": 1, "frames": 0, "wakeups": 0, "sends": 0},
        ],
        "links": {"frames": 9300, "flushes": 3000, "recovered": 7},
        "chaos": {
            "verdicts": {"ok": 4800, "drop": 120, "down": 60, "spike": 20},
            "returned_grants": 5, "repaired_slots": 2,
            "sweep": {"clean": True}, "killed_at_s": 0.5,
            "restarted_at_s": 0.9,
        },
    }

    def test_build_digest_shapes(self):
        digest = build_digest(self.REPORT)
        assert digest["latency_us"]["get"] == {"p50": 80.0, "p99": 950.0}
        assert digest["retries"]["conn_resend"] == 12
        assert digest["retries"]["breaker_trip"] == 1
        assert "rdma_read" not in digest["retries"]
        assert digest["chaos"]["verdicts"]["drop"] == 120
        assert digest["chaos"]["returned_grants"] == 5

    def test_build_digest_without_chaos_section(self):
        report = {k: v for k, v in self.REPORT.items() if k != "chaos"}
        digest = build_digest(report)
        assert "chaos" not in digest

    def test_format_digest_readable(self):
        text = format_digest(build_digest(self.REPORT))
        assert "ops=5000" in text
        assert "get  p50=80.0" in text
        assert "conn_resend" in text and "rdma_read" not in text
        assert "drop" in text

    def test_digest_shows_frames_per_wakeup_per_node(self):
        digest = build_digest(self.REPORT)
        assert digest["nodes"][0]["wakeups"] == 3000
        text = format_digest(digest)
        assert "mn0: frames=9300 wakeups=3000 sends=3010" in text
        assert "frames/wakeup=3.10" in text
        assert "mn1: frames=0" in text and "frames/wakeup=0.00" in text
        assert "client: frames=9300 flushes=3000 frames/flush=3.10" in text
        assert "frames/flush=3.10 recovered=7" in text
        # a report from before the counters existed still formats
        bare = {k: v for k, v in self.REPORT.items()
                if k not in ("nodes", "links")}
        text = format_digest(build_digest(bare))
        assert "frames/wakeup" not in text and "frames/flush" not in text

    def test_persist_digest_round_trips(self, tmp_path):
        path = str(tmp_path / "digest.json")
        persist_digest(build_digest(self.REPORT), path)
        assert json.load(open(path))["ops"] == 5000


class TestRuntimeGating:
    def test_disarmed_without_env(self):
        assert observer.init() is None
        assert observer.current() is None

    def test_maybe_span_is_passthrough_when_disarmed(self):
        with observer.maybe_span("x") as proc:
            assert proc is None

    def test_init_publishes_epoch_for_children(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        proc = observer.init("launcher")
        assert proc is not None
        assert proc.common_epoch_s == proc.t0_epoch_s
        assert float(os.environ["REPRO_TRACE_EPOCH"]) == proc.t0_epoch_s
        # idempotent: second init returns the same hub
        assert observer.init("other") is proc

    def test_child_inherits_common_epoch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_EPOCH", "123.5")
        proc = observer.init("mn0")
        assert proc.common_epoch_s == 123.5

    def test_maybe_span_uses_named_lane(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        proc = observer.init("launcher")
        with observer.maybe_span("harness.kill", lane="harness"):
            pass
        with observer.maybe_span("harness.restart", lane="harness"):
            pass
        spans = [e for e in proc.tracer.chrome_events() if e["ph"] == "X"]
        assert len({s["tid"] for s in spans}) == 1
        assert spans[0]["tid"] != 0

    def test_event_budget_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_EVENTS", "2")
        proc = observer.init("mn0")
        for i in range(5):
            proc.tracer.complete(f"s{i}", "t", proc.now_us())
        assert proc.tracer.dropped == 3


_SIM_UNDER_LAUNCHER = """
from repro.core.cache import DittoCache
from repro.obs import init, maybe_span

init("launcher")
cache = DittoCache(capacity_objects=64, num_clients=1, seed=3)
with maybe_span("replay", "phase"):
    for i in range(40):
        cache.set(f"key-{i % 24}", b"v" * 32)
        cache.get(f"key-{i % 32}")
"""


class TestOneHubPerProcess:
    def test_sim_run_under_armed_launcher_writes_one_shard(self, tmp_path):
        """A sim replay and the launcher's wall spans share one hub: one
        shard, no sim-only trace/metrics files, one pid per tracer."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_TRACE")}
        env["REPRO_TRACE"] = str(tmp_path)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run([sys.executable, "-c", _SIM_UNDER_LAUNCHER],
                       env=env, check=True, timeout=120)
        files = sorted(os.listdir(tmp_path))
        assert len(files) == 1 and files[0].startswith("shard-launcher-")
        assert not {"trace.json", "metrics.json"} & set(files)

        doc, info = merge_shards(str(tmp_path))
        assert validate_trace(doc) == []
        (shard,) = info["shards"]
        assert shard["tracers"] == 2
        pid_of = {e["name"]: e["pid"] for e in doc["traceEvents"]
                  if e.get("ph") == "X"}
        assert "op.get" in pid_of and "replay" in pid_of
        assert pid_of["op.get"] != pid_of["replay"]

    def test_colliding_engine_tids_merge_onto_two_pids(self, tmp_path):
        hub = Observability(directory=str(tmp_path), role="launcher")
        first = hub.bind(Engine(), "ditto")
        second = hub.bind(Engine(), "cliquemap")
        # Same lane, overlapping without nesting: valid only apart.
        first.complete_at("a", "t", 0.0, 10.0, tid=1)
        second.complete_at("b", "t", 5.0, 10.0, tid=1)
        hub.flush()
        doc, info = merge_shards(str(tmp_path))
        assert validate_trace(doc) == []
        assert info["shards"][0]["tracers"] == 2
        pids = {e["name"]: e["pid"] for e in doc["traceEvents"]
                if e.get("ph") == "X"}
        assert pids["a"] != pids["b"]
        names = sorted(
            e["args"]["name"] for e in doc["traceEvents"]
            if e.get("name") == "process_name"
        )
        assert names[0].endswith("cliquemap") and names[1].endswith("ditto")
