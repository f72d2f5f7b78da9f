"""The machine-slowness reference, the arithmetic that uses it, and the
supervisor's promise that a run leaves no process behind."""

import os
import subprocess
import sys

import pytest

import reference
import run
from workloads import _between, _typical_repeats


def test_the_table_is_one_cycle_through_every_entry():
    table = reference._cycle(1 << 10)
    seen, at = set(), 0
    for _ in range(len(table)):
        seen.add(at)
        at = table[at]
    assert at == 0 and len(seen) == len(table)


def test_slowness_is_the_mean_of_the_loops_over_their_quiet_times(monkeypatch):
    monkeypatch.setattr(reference, "LOOPS",
                        (lambda: 0.002, lambda: 0.003, lambda: 0.004))
    monkeypatch.setattr(reference, "QUIET_S", (0.001, 0.002, 0.004))
    assert reference.slowness() == pytest.approx((2.0 + 1.5 + 1.0) / 3)
    assert len(reference.LOOPS) == len(reference.QUIET_S)


def test_real_loops_take_about_their_quiet_times():
    sample = min(reference.slowness() for _ in range(5))
    assert 0.2 < sample < 5.0


def test_windows_take_the_median_of_their_repeats():
    # seconds[section][window]
    assert _typical_repeats([[1.0, 9.0], [2.0, 5.0], [3.0, 7.0]]) == 9.0
    assert _between([1.0, 1.2, 1.6]) == pytest.approx(1.4)


def _children_of(pid):
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == pid:
                found.append(int(entry))
    return found


def test_a_run_leaves_no_process_behind():
    """The loadgen of a ``shm_reads`` workload starts a resource tracker that
    outlives it; the supervisor adopts and outwaits it."""
    libc = run.ctypes.CDLL(None)
    # Orphans of the run are handed to this process while the test lasts.
    assert libc.prctl(run.PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    try:
        before = set(_children_of(os.getpid()))
        done = subprocess.run(
            [sys.executable, run.__file__, "--workload", "real-shm-read-hot",
             "--seed", "5", "--trace", "0", "--smoke", "--out", os.devnull],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert done.returncode == 0, done.stderr
        assert '"correct": true' in done.stdout.splitlines()[-1]
        assert set(_children_of(os.getpid())) == before
    finally:
        libc.prctl(run.PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
