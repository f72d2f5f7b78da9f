"""Span self-time arithmetic and the per-op breakdown built on it."""

import pytest

from tracing import (HOST_LAYERS, SpanRecorder, _layer_of, covered,
                     op_breakdown, self_times)


def span(name, parent, start, end):
    return [name, parent, 0, float(start), float(end)]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(10, 30), (20, 50), (90, 120)], 0, 100) == 50
    assert covered([], 0, 100) == 0
    assert covered([(-5, 200)], 0, 100) == 100


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        span("op.get", -1, 0, 100),
        span("verb.read", 0, 10, 30),
        span("verb.read", 0, 20, 50),   # overlaps its sibling
        span("verb.read", 0, 90, 120),  # runs past the parent
        span("op.set", -1, 200, 260),
        span("verb.cas", 4, 210, 220),
        span("open", -1, 300, -1),      # never closed
    ]
    assert self_times(spans) == [50, 20, 30, 30, 50, 10, 0]


def test_op_breakdown_counts_children_per_op():
    spans = [
        span("op.get", -1, 0, 100),
        span("verb.read", 0, 10, 40),
        span("verb.read", 0, 50, 80),
        span("post.write", 0, 90, 90),
        span("op.set", -1, 100, 300),
        span("verb.read", 4, 110, 150),
        span("verb.write", 4, 150, 200),
        span("verb.cas", 4, 200, 250),
    ]
    out = op_breakdown(spans)
    assert out["core.self_us_per_get"] == 40
    assert out["core.self_us_per_set"] == 60
    assert out["client.verbs_per_get"] == 3
    assert out["client.reads_per_get"] == 2
    assert out["client.verbs_per_set"] == 3
    assert out["client.cas_per_set"] == 1
    assert out["client.read_wait_us"] == 30
    assert out["client.get_traced_us"] == 100


def test_recorder_nests_and_writes_one_id_per_op(tmp_path):
    rec = SpanRecorder()
    op = rec.begin("op.get", lane=1)
    verb = rec.begin("verb.read", op, 1)
    rec.end(verb)
    rec.instant("post.write", op, 1)
    rec.end(op)
    path = tmp_path / "out" / "t.trace.json"
    rec.write_chrome_trace(str(path))
    import json
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["op.get", "verb.read",
                                           "post.write"]
    assert {e["args"]["id"] for e in events} == {op}
    assert self_times(rec.spans)[op] == pytest.approx(
        (rec.spans[op][4] - rec.spans[op][3])
        - (rec.spans[verb][4] - rec.spans[verb][3])
    )


@pytest.mark.parametrize("filename, funcname, layer", [
    ("/x/src/repro/sim/engine.py", "run", "sim"),
    ("/x/src/repro/runtime/wire.py", "request_frame", "runtime"),
    ("/x/src/repro/baselines/kvs.py", "get", "other"),
    ("/x/perf/workloads.py", "client_loop", "bench"),
    ("/usr/lib/python3.11/asyncio/base_events.py", "_run_once", "asyncio"),
    ("~", "<built-in method _pickle.dumps>", "codec"),
    ("~", "<method 'pack' of '_struct.Struct' objects>", "codec"),
    ("~", "<method 'poll' of 'select.epoll' objects>", "asyncio"),
    ("/usr/lib/python3.11/site-packages/numpy/core/x.py", "f", "numpy"),
    ("~", "<built-in method builtins.len>", "other"),
])
def test_profile_rows_land_in_one_layer(filename, funcname, layer):
    assert _layer_of(filename, funcname) == layer
    assert layer in HOST_LAYERS
