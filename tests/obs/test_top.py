"""Rendering tests for ``repro.obs.top`` (no live cluster required).

The live polling path — real ``__stats__`` RPCs against spawned node
processes — is covered by tests/runtime/test_obs_runtime.py; here we
fabricate ``__stats__`` payloads and check the table math: first-poll
absolute totals, delta rates on later polls, DOWN rows, and the dark-node
hint.
"""

import json

from repro.obs.top import _verb_counts, _verb_latency, main, render_table

NODES = [
    {"node_id": 0, "host": "127.0.0.1", "port": 1},
    {"node_id": 1, "host": "127.0.0.1", "port": 2},
]


def stats(ops=100, reads=80, writes=20, pid=42, armed=True,
          verdicts=None, read_p50=50.0, read_p99=200.0, wakeups=40):
    metrics = None
    if armed:
        metrics = {
            "counters": [
                {"name": "verbs", "labels": {"verb": "read"},
                 "value": reads},
                {"name": "verbs", "labels": {"verb": "write"},
                 "value": writes},
            ],
            "gauges": [],
            "histograms": [
                {"name": "verb.service_us", "labels": {"verb": "read"},
                 "count": reads, "p50": read_p50, "p90": 150.0,
                 "p99": read_p99, "mean": 60.0, "max": 300.0},
            ],
        }
    return {
        "node_id": 0, "role": "mn0", "pid": pid, "uptime_s": 12.5,
        "ops_served": ops, "wakeups": wakeups, "sends": wakeups,
        "connections": 4, "inflight_delayed": 0,
        "journal_entries": 3, "grants": 1, "chaos_armed": False,
        "chaos_verdicts": verdicts or {}, "obs_armed": armed,
        "metrics": metrics,
    }


class TestParsers:
    def test_verb_counts_and_latency(self):
        payload = stats()
        assert _verb_counts(payload) == {"read": 80, "write": 20}
        assert _verb_latency(payload)["read"]["p99"] == 200.0

    def test_none_and_dark_payloads(self):
        assert _verb_counts(None) == {}
        assert _verb_latency(stats(armed=False)) == {}


class TestRenderTable:
    def test_first_poll_marks_absolute_totals(self):
        text = render_table(NODES[:1], [stats()], [None], interval_s=1.0)
        assert "Σ100" in text          # ops column: absolute, marked
        assert "Σ80" in text           # read verb row
        assert "write" in text

    def test_second_poll_shows_deltas(self):
        prev = [stats(ops=100, reads=80, writes=20)]
        now = [stats(ops=160, reads=130, writes=30)]
        text = render_table(NODES[:1], now, prev, interval_s=2.0)
        assert "Σ" not in text
        assert " 30 " in text          # (160-100)/2 ops/s
        assert " 25 " in text          # (130-80)/2 read rate

    def test_frames_per_wakeup_column(self):
        first = render_table(NODES[:1], [stats(ops=100, wakeups=40)],
                             [None], interval_s=1.0)
        assert "f/wake" in first and " 2.50 " in first
        # later polls: the ratio of the deltas, not of the totals
        later = render_table(
            NODES[:1], [stats(ops=400, wakeups=100)],
            [stats(ops=100, wakeups=40)], interval_s=1.0,
        )
        assert " 5.00 " in later

    def test_down_node_row(self):
        text = render_table(NODES, [stats(), None], [None, None], 1.0)
        assert "DOWN" in text

    def test_dark_node_hint(self):
        text = render_table(
            NODES[:1], [stats(armed=False)], [None], 1.0
        )
        assert "--arm" in text

    def test_gate_verdicts_column(self):
        payload = stats(verdicts={"ok": 90, "drop": 7, "down": 3,
                                  "spike": 0})
        text = render_table(NODES[:1], [payload], [None], 1.0)
        assert "drop=7" in text and "spike" not in text

    def test_latency_columns_from_histogram(self):
        text = render_table(
            NODES[:1], [stats(read_p50=55.0, read_p99=210.0)], [None], 1.0
        )
        assert "55" in text and "210" in text


class TestCli:
    def test_empty_descriptor_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"nodes": []}))
        assert main(["--descriptor", str(path), "--count", "1"]) == 2
        assert "no nodes" in capsys.readouterr().err

    def test_all_nodes_unreachable_exits_nonzero(self, tmp_path, capsys):
        # port 1 on loopback: connection refused, fetch_stats returns None
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"nodes": NODES}))
        rc = main(["--descriptor", str(path), "--count", "1",
                   "--timeout", "0.2"])
        assert rc == 1
        assert "no node reachable" in capsys.readouterr().err
