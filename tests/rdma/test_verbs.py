"""Unit tests for the one-sided verb layer (semantics + timing)."""

import numpy as np
import pytest

from repro.core.elasticity import EpochFence
from repro.memory import Controller, MemoryNode, MemoryPool
from repro.obs.trace import SpanTracer
from repro.rdma import NetworkParams, RdmaEndpoint
from repro.sim import Engine
from repro.sim.engine import Process
from repro.sim.faults import DropWindow, FaultInjector, FaultPlan, NodeOutage


@pytest.fixture()
def fabric():
    engine = Engine()
    node = MemoryNode(engine, size=1 << 16)
    Controller(node, cores=1, reserve=1024)
    pool = MemoryPool([node])
    endpoint = RdmaEndpoint(engine, pool)
    return engine, node, pool, endpoint


def test_write_then_read_roundtrip(fabric):
    engine, _node, _pool, ep = fabric

    def flow():
        yield from ep.write(100, b"payload")
        data = yield from ep.read(100, 7)
        return data

    assert engine.run_process(flow()) == b"payload"


def test_read_takes_at_least_one_rtt(fabric):
    engine, _node, _pool, ep = fabric

    def flow():
        yield from ep.read(0, 8)

    engine.run_process(flow())
    assert engine.now >= ep.params.rtt_us


def test_cas_success_and_failure(fabric):
    engine, _node, _pool, ep = fabric

    def flow():
        first = yield from ep.cas(200, 0, 7)
        second = yield from ep.cas(200, 0, 9)  # expected stale -> fails
        current = yield from ep.read(200, 8)
        return first, second, current

    first, second, current = engine.run_process(flow())
    assert first == 0  # swap happened
    assert second == 7  # returned actual value, no swap
    assert int.from_bytes(current, "little") == 7


def test_faa_accumulates_and_returns_old(fabric):
    engine, _node, _pool, ep = fabric

    def flow():
        a = yield from ep.faa(304, 5)
        b = yield from ep.faa(304, 3)
        return a, b

    a, b = engine.run_process(flow())
    assert (a, b) == (0, 5)


def test_faa_wraps_at_64_bits(fabric):
    engine, node, _pool, ep = fabric
    node.write_u64(304, (1 << 64) - 1)

    def flow():
        old = yield from ep.faa(304, 2)
        return old

    assert engine.run_process(flow()) == (1 << 64) - 1
    assert node.read_u64(304) == 1


def test_counters_track_verbs(fabric):
    engine, _node, _pool, ep = fabric

    def flow():
        yield from ep.write(0, b"x")
        yield from ep.read(0, 1)
        yield from ep.cas(8, 0, 1)
        yield from ep.faa(16, 1)

    engine.run_process(flow())
    counts = ep.counters.as_dict()
    assert counts == {"rdma_write": 1, "rdma_read": 1, "rdma_cas": 1, "rdma_faa": 1}


def test_nic_serializes_concurrent_clients():
    engine = Engine()
    params = NetworkParams(
        rtt_us=0.0, client_overhead_us=0.0, nic_rate_mops=1.0,
        bandwidth_bytes_per_us=1e12,
    )
    node = MemoryNode(engine, size=4096, params=params)
    pool = MemoryPool([node])
    finish = []

    def client():
        ep = RdmaEndpoint(engine, pool, params)
        yield from ep.read(0, 8)
        finish.append(engine.now)

    for _ in range(3):
        engine.spawn(client())
    engine.run()
    # one message per microsecond at 1 Mops (tiny bandwidth term tolerated)
    assert finish == pytest.approx([1.0, 2.0, 3.0], abs=1e-6)


def test_atomicity_under_concurrent_cas():
    """Exactly one of N concurrent CAS(0 -> id) winners."""
    engine = Engine()
    node = MemoryNode(engine, size=4096)
    pool = MemoryPool([node])
    outcomes = []

    def client(client_id):
        ep = RdmaEndpoint(engine, pool)
        old = yield from ep.cas(0, 0, client_id)
        outcomes.append((client_id, old))

    for cid in (1, 2, 3, 4):
        engine.spawn(client(cid))
    engine.run()
    winners = [cid for cid, old in outcomes if old == 0]
    assert len(winners) == 1
    assert node.read_u64(0) == winners[0]


def test_post_write_is_asynchronous(fabric):
    engine, node, _pool, ep = fabric

    def flow():
        ep.post_write(500, b"later")
        if False:
            yield
        return engine.now

    issued_at = engine.run_process(flow())
    assert issued_at == 0.0  # returned immediately
    engine.run()
    assert node.read_bytes(500, 5) == b"later"


def test_charge_costs_time_without_memory_access(fabric):
    engine, node, _pool, ep = fabric
    before = bytes(node.read_bytes(0, 64))

    def flow():
        yield from ep.charge(node, "read", 64)

    engine.run_process(flow())
    assert engine.now > 0
    assert node.read_bytes(0, 64) == before


def test_rpc_without_controller_raises():
    engine = Engine()
    node = MemoryNode(engine, size=4096)
    pool = MemoryPool([node])
    ep = RdmaEndpoint(engine, pool)

    def flow():
        yield from ep.rpc(node, "x", None)

    with pytest.raises(RuntimeError, match="no controller"):
        engine.run_process(flow())


def test_rpc_dispatches_registered_handler(fabric):
    engine, node, _pool, ep = fabric
    node.controller.register("echo", lambda payload: payload * 2, cpu_us=1.0)

    def flow():
        result = yield from ep.rpc(node, "echo", 21)
        return result

    assert engine.run_process(flow()) == 42


def test_multi_node_pool_routes_by_address():
    engine = Engine()
    node_a = MemoryNode(engine, size=4096, base=0, node_id=0)
    node_b = MemoryNode(engine, size=4096, base=4096, node_id=1)
    pool = MemoryPool([node_a, node_b])
    ep = RdmaEndpoint(engine, pool)

    def flow():
        yield from ep.write(100, b"a")
        yield from ep.write(4196, b"b")

    engine.run_process(flow())
    assert node_a.read_bytes(100, 1) == b"a"
    assert node_b.read_bytes(4196, 1) == b"b"


# -- posts: two engine callbacks, no process ---------------------------------


def _unit_fabric():
    """Zero-latency links and a 1 Mops NIC: each verb holds the pipe 1 us."""
    engine = Engine()
    params = NetworkParams(
        rtt_us=0.0, client_overhead_us=0.0, nic_rate_mops=1.0,
        bandwidth_bytes_per_us=1e12,
        verb_timeout_us=40.0,
    )
    node = MemoryNode(engine, size=4096, params=params)
    return engine, node, RdmaEndpoint(engine, MemoryPool([node]), params)


def test_posts_return_none(fabric):
    engine, node, _pool, ep = fabric
    assert ep.post_write(500, b"later") is None
    assert ep.post_faa(600, 4) is None
    engine.run()
    assert node.read_bytes(500, 5) == b"later"
    assert node.read_u64(600) == 4


def test_fenced_post_is_counted_and_never_raises(fabric):
    engine, node, _pool, ep = fabric
    fence = EpochFence()
    fence.fence_writes(0, 1 << 16, 0)
    ep.post_write(500, b"booked")
    ep.fence = fence  # armed after the first post, which booked as posted
    ep.post_faa(600, 1)
    ep.post_write(700, b"doomed")
    engine.run()
    assert ep.counters.as_dict() == {
        "rdma_write": 1, "fenced_post_dropped": 2,
    }
    assert node.read_bytes(500, 6) == b"booked"
    assert node.read_u64(600) == 0
    assert node.read_bytes(700, 6) == bytes(6)


@pytest.mark.parametrize("plan, verb, counter", [
    (FaultPlan(drops=(DropWindow(0.0, 1e9),)), "write", "fault_verb_timeout"),
    (FaultPlan(drops=(DropWindow(0.0, 1e9),)), "faa", "fault_verb_timeout"),
    (FaultPlan(outages=(NodeOutage(0, 0.0, 1e9),)), "faa",
     "fault_node_unavailable"),
])
def test_a_lost_post_is_counted_one_timeout_after_issue(plan, verb, counter):
    engine, node, ep = _unit_fabric()
    ep.faults = FaultInjector(engine, plan)
    issued_at = 5.0

    def poster():
        yield issued_at
        if verb == "write":
            ep.post_write(8, b"lost")
        else:
            ep.post_faa(8, 1)

    engine.spawn(poster())
    landed_at = issued_at + ep.params.verb_timeout_us
    engine.run(until=landed_at - 1e-9)
    assert ep.counters.as_dict() == {f"rdma_{verb}": 1}
    engine.run(until=landed_at)
    assert ep.counters.as_dict() == {
        f"rdma_{verb}": 1, counter: 1, "fault_post_dropped": 1,
    }
    assert node.read_u64(8) == 0
    assert node.nic.messages == 0  # a lost verb never reaches the NIC


def test_a_post_books_the_nic_ahead_of_the_verb_after_it():
    engine, node, ep = _unit_fabric()
    seen = []

    def client():
        ep.post_write(0, b"\x01")
        data = yield from ep.read(0, 1)
        seen.append((engine.now, data))

    engine.spawn(client())
    engine.run(until=1.5)
    # The posted WRITE held the pipe first, as on an RC queue pair (the
    # tiny bandwidth term is tolerated) ...
    assert seen == []
    assert node.read_bytes(0, 1) == b"\x01"
    engine.run()
    # ... and the READ behind it sees its byte.
    assert seen == [(pytest.approx(2.0), b"\x01")]


def test_posts_create_no_process(fabric, monkeypatch):
    engine, node, _pool, ep = fabric
    created = []
    init = Process.__init__

    def spy(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", spy)
    for i in range(10):
        ep.post_write(8 * i, b"x")
        ep.post_faa(512, 1)
    engine.run()
    assert created == []
    assert node.read_u64(512) == 10
    # Each post still takes the lane a process would have: later tids hold.
    assert next(engine._tids) == 21


def test_a_yielded_float_resumes_like_a_timeout():
    engine = Engine()
    order = []

    def sleeper(label, delay):
        yield delay
        order.append((label, engine.now, type(engine.now)))

    engine.spawn(sleeper("int-a", 2))
    engine.spawn(sleeper("float", 2.0))
    engine.spawn(sleeper("int-b", 2))
    engine.spawn(sleeper("numpy", np.float64(2.0)))
    engine.spawn(sleeper("early", 0.25))
    engine.run()
    # Same-time wake-ups keep scheduling order, whatever was yielded, and
    # a delay is pushed uncoerced: a numpy delay makes a numpy clock.
    assert order == [
        ("early", 0.25, float), ("int-a", 2.0, float), ("float", 2.0, float),
        ("int-b", 2.0, float), ("numpy", 2.0, np.float64),
    ]


def test_only_admitted_post_spans_name_a_lane():
    engine, _node, ep = _unit_fabric()
    ep.tracer = tracer = SpanTracer(engine, max_events=1)
    ep.post_write(0, b"x")
    ep.post_faa(8, 1)
    engine.run()
    assert tracer.dropped == 1
    events = list(tracer.chrome_events())
    lanes = {e["tid"]: e["args"]["name"] for e in events
             if e["name"] == "thread_name"}
    spans = [(e["name"], e["tid"]) for e in events if e["ph"] == "X"]
    assert lanes == {0: "main", 1: "post_write"}
    assert spans == [("rdma.write", 1)]
