"""Trace analysis tests: aggregates, flamegraph folding, and the CLI."""

import json

import pytest

from repro.obs.report import (
    aggregate_spans,
    counter_summaries,
    flamegraph_folded,
    main,
    render_report,
)


def span(name, ts, dur, tid=1, pid=0):
    return {"ph": "X", "name": name, "cat": "t", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid}


NESTED_DOC = {
    "traceEvents": [
        span("op.get", 0.0, 10.0),
        span("rdma.read", 1.0, 3.0),
        span("rdma.read", 5.0, 4.0),
        span("op.get", 20.0, 6.0),
        {"ph": "C", "name": "mn0.nic", "ts": 0.0, "pid": 0, "tid": 0,
         "args": {"inflight": 2, "queued": 0}},
        {"ph": "C", "name": "mn0.nic", "ts": 10.0, "pid": 0, "tid": 0,
         "args": {"inflight": 4, "queued": 1}},
    ]
}


class TestAggregate:
    def test_self_time_excludes_children(self):
        stats = aggregate_spans(NESTED_DOC)
        get = stats["op.get"]
        assert get["count"] == 2
        assert get["total_us"] == pytest.approx(16.0)
        # first op.get: 10 - (3 + 4) = 3 self; second has no children: 6
        assert get["self_us"] == pytest.approx(9.0)
        assert get["mean_us"] == pytest.approx(8.0)
        assert get["max_us"] == pytest.approx(10.0)
        read = stats["rdma.read"]
        assert read["count"] == 2
        assert read["self_us"] == pytest.approx(7.0)

    def test_lanes_aggregate_independently(self):
        doc = {"traceEvents": [span("a", 0, 10, tid=1), span("a", 0, 10, tid=2)]}
        stats = aggregate_spans(doc)
        # same ts on different lanes: neither nests inside the other
        assert stats["a"]["count"] == 2
        assert stats["a"]["self_us"] == pytest.approx(20.0)

    def test_empty_doc(self):
        assert aggregate_spans({"traceEvents": []}) == {}


class TestFlamegraph:
    def test_folded_paths_follow_nesting(self):
        lines = flamegraph_folded(NESTED_DOC)
        assert "op.get 9" in lines
        assert "op.get;rdma.read 7" in lines

    def test_zero_weight_frames_dropped(self):
        doc = {"traceEvents": [span("outer", 0, 4), span("inner", 0, 4)]}
        lines = flamegraph_folded(doc)
        # outer's entire duration is covered by inner: only the leaf shows
        assert lines == ["outer;inner 4"]


class TestCounters:
    def test_per_field_mean_and_max(self):
        summaries = counter_summaries(NESTED_DOC)
        nic = summaries["mn0.nic"]
        assert nic["inflight"] == {"mean": 3.0, "max": 4.0}
        assert nic["queued"] == {"mean": 0.5, "max": 1.0}

    def test_no_counters(self):
        assert counter_summaries({"traceEvents": [span("a", 0, 1)]}) == {}


class TestRender:
    def test_report_contains_spans_and_counters(self):
        text = render_report(NESTED_DOC)
        assert "op.get" in text and "rdma.read" in text
        assert "mn0.nic" in text and "inflight=3.00/4.00" in text

    def test_top_limits_rows(self):
        text = render_report(NESTED_DOC, top=1)
        # exactly header + 1 span row before the counter section
        span_rows = text.split("\n\n")[0].splitlines()
        assert len(span_rows) == 2


class TestCli:
    def _write(self, tmp_path, doc):
        path = tmp_path / "t.trace.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_report_mode(self, tmp_path, capsys):
        rc = main([self._write(tmp_path, NESTED_DOC)])
        assert rc == 0
        assert "op.get" in capsys.readouterr().out

    def test_validate_ok(self, tmp_path, capsys):
        rc = main([self._write(tmp_path, NESTED_DOC), "--validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "valid" in out and "op.get" not in out

    def test_validate_bad_trace_fails(self, tmp_path, capsys):
        bad = {"traceEvents": [span("a", 0, 10), span("b", 5, 10)]}
        rc = main([self._write(tmp_path, bad), "--validate"])
        assert rc == 1
        assert "INVALID" in capsys.readouterr().err

    def test_flamegraph_output(self, tmp_path, capsys):
        out = tmp_path / "out.folded"
        rc = main([self._write(tmp_path, NESTED_DOC), "--flamegraph", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert "op.get;rdma.read 7" in lines
        assert "op.get" not in capsys.readouterr().out.splitlines()[0]

    def test_trace_and_merge_are_mutually_exclusive(self, tmp_path):
        path = self._write(tmp_path, NESTED_DOC)
        with pytest.raises(SystemExit):
            main([path, "--merge", str(tmp_path)])
        with pytest.raises(SystemExit):
            main([])


class TestMergeCli:
    """``--merge DIR`` over the wall-clock shards hubs flush."""

    def _populate(self, tmp_path):
        from repro.obs import Observability

        launcher = Observability(directory=str(tmp_path), role="launcher")
        with launcher.span("load", "phase"):
            pass
        launcher.flush()
        for node_id in range(2):
            proc = Observability(
                directory=str(tmp_path), role=f"mn{node_id}",
                common_epoch_s=launcher.t0_epoch_s,
            )
            lane = proc.lane("conn-0")
            start = proc.now_us()
            proc.tracer.complete("read", "verb", start, tid=lane)
            proc.flush()
        return launcher

    def test_merge_validate_and_output_file(self, tmp_path, capsys):
        self._populate(tmp_path)
        rc = main(["--merge", str(tmp_path), "--validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "merged 3 shards" in out and "valid" in out
        merged = json.loads((tmp_path / "merged.trace.json").read_text())
        pids = {e["pid"] for e in merged["traceEvents"]}
        assert len(pids) == 3

    def test_merge_skips_partial_shard(self, tmp_path, capsys):
        self._populate(tmp_path)
        (tmp_path / "shard-mn9-999.json").write_text('{"traceEvents": [')
        rc = main(["--merge", str(tmp_path), "--validate"])
        assert rc == 0
        assert "skipped unreadable shard" in capsys.readouterr().err

    def test_merge_empty_dir_fails(self, tmp_path, capsys):
        rc = main(["--merge", str(tmp_path)])
        assert rc == 1
        assert "no shard" in capsys.readouterr().err

    def test_merge_out_override(self, tmp_path):
        self._populate(tmp_path)
        out = tmp_path / "elsewhere.json"
        rc = main(["--merge", str(tmp_path), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["traceEvents"]

    def test_per_node_flamegraphs(self, tmp_path, capsys):
        self._populate(tmp_path)
        flames = tmp_path / "flames"
        rc = main(["--merge", str(tmp_path),
                   "--per-node-flamegraphs", str(flames)])
        assert rc == 0
        files = sorted(p.name for p in flames.iterdir())
        assert len(files) == 3
        assert any("launcher" in name for name in files)
        assert any("mn0" in name for name in files)
        # each file is valid collapsed-stack input
        for name in files:
            for line in (flames / name).read_text().splitlines():
                stack, weight = line.rsplit(" ", 1)
                assert stack and int(weight) >= 0
