"""Memory nodes forked by the launcher: what a node process is and does.

Every node of a process is forked from one launcher that has the server
imported (:mod:`repro.runtime.launcher`).  These tests hold what the
harness relies on: the node starts no process of its own and exits
quietly, it sees the environment of the moment it was launched, its
handle reports exits as ``subprocess.Popen`` does, and the launcher ends
with the process that started it.
"""

import json
import os
import select
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.obs import observer
from repro.runtime import launcher, wire
from repro.runtime.harness import RealClusterHarness, _exchange


def _one_node(seed=1):
    return RealClusterHarness(capacity_objects=256, num_clients=1, seed=seed)


def test_a_node_starts_no_process_and_shuts_down_silently():
    """A ``multiprocessing`` heap started a resource tracker per node,
    whose exit printed a ``KeyError`` traceback to the node's stderr."""
    harness = _one_node()
    harness.launch()
    try:
        proc = harness.procs[0]
        with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
            assert fh.read().split() == []
        # shutdown() closes the harness's end; read from a copy of it.
        stderr = os.dup(proc.stderr.fileno())
    finally:
        harness.shutdown()
    with open(stderr, encoding="utf-8") as fh:
        assert fh.read() == ""
    assert proc.returncode == 0
    assert harness.leak_report()["clean"]


def test_an_env_var_set_after_the_launcher_started_reaches_the_next_node(
        tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_EPOCH", raising=False)
    # This process stays dark: only the node reads REPRO_TRACE.
    monkeypatch.setattr(observer, "_current", None)
    monkeypatch.setattr(observer, "_env_checked", True)
    with _one_node():
        pass
    started = launcher._launcher.process.pid

    trace_dir = tmp_path / "trace"
    monkeypatch.setenv("REPRO_TRACE", str(trace_dir))
    harness = _one_node(seed=2)
    try:
        harness.launch()
    finally:
        harness.shutdown()
    assert launcher._launcher.process.pid == started
    shard = trace_dir / f"shard-mn0-{harness.procs[0].pid}.json"
    assert sorted(os.listdir(trace_dir)) == [shard.name]
    doc = json.loads(shard.read_text())
    assert (doc["role"], doc["pid"]) == ("mn0", harness.procs[0].pid)


def _verb(entry, op, body):
    status, answer = _exchange(
        entry["unix"], wire.request_frame(op, 1, body), 5.0
    )
    assert status == wire.ST_OK
    return answer


def test_exit_codes_and_a_killed_nodes_heap_adopted():
    harness = _one_node()
    entry = harness.launch()["nodes"][0]
    try:
        addr = entry["base"] + entry["size"] // 2
        _verb(entry, wire.OP_WRITE, wire.WRITE_HDR.pack(addr) + b"kept")
        first = harness.procs[0]
        assert first.poll() is None
        assert harness.kill_node(0)
        assert first.returncode == -signal.SIGKILL
        assert harness.reap() == [0]
        harness.restart_node(0)
        second = harness.procs[1]
        assert second.pid != first.pid
        read = wire.READ_BODY.pack(addr, 4)
        assert _verb(entry, wire.OP_READ, read) == b"kept"
    finally:
        harness.shutdown()
    assert second.returncode == 0
    assert harness.leak_report()["clean"]


def test_a_wait_that_times_out_raises_as_popen_does():
    harness = _one_node()
    harness.launch()
    try:
        with pytest.raises(subprocess.TimeoutExpired):
            harness.procs[0].wait(timeout=0.05)
    finally:
        harness.shutdown()


def test_a_node_that_dies_before_ready_shows_its_stderr():
    harness = _one_node()
    harness.launch()
    try:
        harness.kill_node(0)
        assert harness.unlink_leaked()  # nothing left to adopt
        with pytest.raises(RuntimeError) as raised:
            harness.restart_node(0)
        message = str(raised.value)
        assert "exited with 1 before readiness" in message
        assert "DITTO-NODE-ERROR node_id=0" in message
    finally:
        harness.shutdown()
    assert harness.leak_report()["clean"]


_LAUNCH_AND_VANISH = textwrap.dedent("""
    import os
    from repro.runtime import launcher
    from repro.runtime.harness import RealClusterHarness

    with RealClusterHarness(capacity_objects=256, num_clients=1):
        pass
    print(launcher._launcher.process.pid, flush=True)
    os._exit(0)  # no atexit: the launcher must notice on its own
""")


def test_the_launcher_ends_when_its_process_does():
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        launcher.__file__
    )))
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCH_AND_VANISH], capture_output=True,
        text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    try:
        exited = os.pidfd_open(int(done.stdout))
    except ProcessLookupError:
        return  # exited and already reaped
    with os.fdopen(exited) as pidfd:
        assert select.select([pidfd], [], [], 10.0)[0], "launcher lingers"
