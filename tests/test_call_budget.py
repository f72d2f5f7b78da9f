"""A simulated op's host cost, held as a count of Python calls.

A figure's wall-clock is mostly per-op interpreter work: every Get and Set
is a chain of verb generators the engine resumes, and each call into the
client, the verbs, the address map or the engine costs host time without
moving simulated time.  This test counts the ``sys.setprofile`` "call"
events (a call, or a generator resumed) whose code lies under
``src/repro`` over one seeded window shaped like ``perf/``'s
``sim-evict-trace``: two memory nodes, 16 clients replaying a phase-switch
trace, a 500 us miss penalty, sampled eviction and adaptive weights.  The
window is simulated, so the count is exact.  Counting only repro frames
keeps out the standard library's, which differ between Python versions;
from 3.12 a list comprehension runs inline, not in a frame of its own
(PEP 709), so 3.12 reads a little under 3.10 and 3.11.

Print the number with ``PYTHONPATH=src python tests/test_call_budget.py``;
it also prints the same window under ``policies=("lru", "gds")``, whose
extension field keeps victim choice on the generic ``priority`` scan
(logged, not gated).
"""

import os
import sys

import numpy as np

import repro
from repro.bench.runner import Harness
from repro.bench.systems import build_ditto, trace_feeds
from repro.workloads.traces import phase_switch_trace

#: Calls into ``src/repro`` per op: the window read 120.4 when the gate
#: went in, and 106.9 once column experts chose victims on the sample's
#: words; the budget is the latter plus 5 %.  Lower it when a change cuts
#: calls; raise it only with the reason in CHANGES.md.
BUDGET = 112.2

_REPRO = os.path.dirname(repro.__file__) + os.sep


def repro_calls_per_op(policies=("lru", "lfu")):
    """``(calls per op, ops)`` over the window, with ``policies`` as the
    experts."""
    trace = phase_switch_trace(24_000, 2048, phases=4, seed=1)
    cluster = build_ditto(
        len(np.unique(trace)) // 10, 16, policies=policies, seed=1,
        num_memory_nodes=2,
    )
    harness = Harness(cluster.engine, value_size=232, miss_penalty_us=500.0)
    harness.launch_all(cluster.clients, trace_feeds(trace, 16))
    harness.warm(16_000.0)
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_REPRO):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = harness.measure(24_000.0)
    finally:
        sys.setprofile(previous)
    harness.stop_all()
    return calls / result.ops, result.ops


def test_repro_calls_per_op_within_budget():
    per_op, ops = repro_calls_per_op()
    assert ops >= 1000
    assert per_op <= BUDGET, (
        f"{per_op:.1f} calls into src/repro per op, budget {BUDGET}"
    )


if __name__ == "__main__":
    per_op, ops = repro_calls_per_op()
    print(f"repro calls per op: {per_op:.1f} over {ops} ops "
          f"(budget {BUDGET})")
    per_op, ops = repro_calls_per_op(("lru", "gds"))
    print(f"repro calls per op, policies=('lru', 'gds'): {per_op:.1f} "
          f"over {ops} ops (not gated)")
