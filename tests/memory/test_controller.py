"""Unit tests for the memory-node controller."""

import pytest

from repro.memory import Controller, MemoryNode, MemoryPool, OutOfMemoryError
from repro.rdma import RdmaEndpoint
from repro.sim import Engine


@pytest.fixture()
def setup():
    engine = Engine()
    node = MemoryNode(engine, size=64 * 1024)
    controller = Controller(node, cores=1, reserve=1024)
    ep = RdmaEndpoint(engine, MemoryPool([node]))
    return engine, node, controller, ep


def _rpc(engine, ep, node, op, payload):
    def flow():
        result = yield from ep.rpc(node, op, payload)
        return result

    return engine.run_process(flow())


class TestSegments:
    def test_alloc_respects_reserve(self, setup):
        engine, node, controller, ep = setup
        addr = _rpc(engine, ep, node, "alloc_segment", 4096)
        assert addr >= 1024

    def test_allocations_are_disjoint(self, setup):
        engine, node, controller, ep = setup
        a = _rpc(engine, ep, node, "alloc_segment", 4096)
        b = _rpc(engine, ep, node, "alloc_segment", 4096)
        assert abs(a - b) >= 4096

    def test_free_then_realloc_reuses(self, setup):
        engine, node, controller, ep = setup
        a = _rpc(engine, ep, node, "alloc_segment", 4096)
        _rpc(engine, ep, node, "free_segment", (a, 4096))
        b = _rpc(engine, ep, node, "alloc_segment", 4096)
        assert b == a

    def test_exhaustion_raises(self, setup):
        engine, node, controller, ep = setup
        with pytest.raises(OutOfMemoryError):
            _rpc(engine, ep, node, "alloc_segment", 1 << 20)

    def test_size_rounded_to_blocks(self, setup):
        engine, node, controller, ep = setup
        a = _rpc(engine, ep, node, "alloc_segment", 1)
        b = _rpc(engine, ep, node, "alloc_segment", 1)
        assert b - a == 64

    def test_bytes_remaining_accounts_freed(self, setup):
        engine, node, controller, ep = setup
        before = controller.bytes_remaining
        a = _rpc(engine, ep, node, "alloc_segment", 4096)
        assert controller.bytes_remaining == before - 4096
        _rpc(engine, ep, node, "free_segment", (a, 4096))
        assert controller.bytes_remaining == before


class TestHandlers:
    def test_unknown_op(self, setup):
        engine, node, controller, ep = setup
        with pytest.raises(KeyError, match="no RPC handler"):
            _rpc(engine, ep, node, "nope", None)

    def test_payload_dependent_cpu_cost(self, setup):
        engine, node, controller, ep = setup
        controller.register("work", lambda n: n, cpu_us=lambda n: float(n))
        t0 = engine.now
        _rpc(engine, ep, node, "work", 0)
        short = engine.now - t0
        t0 = engine.now
        _rpc(engine, ep, node, "work", 100)
        long = engine.now - t0
        assert long - short == pytest.approx(100.0)

    def test_single_core_serializes_rpcs(self, setup):
        engine, node, controller, ep = setup
        controller.register("slow", lambda _p: None, cpu_us=10.0)
        finish = []

        def client():
            local = RdmaEndpoint(engine, ep.pool)
            yield from local.rpc(node, "slow", None)
            finish.append(engine.now)

        for _ in range(3):
            engine.spawn(client())
        engine.run()
        gaps = [b - a for a, b in zip(finish, finish[1:])]
        assert all(gap >= 10.0 for gap in gaps)

    def test_more_cores_parallelize(self):
        engine = Engine()
        node = MemoryNode(engine, size=64 * 1024)
        controller = Controller(node, cores=4, reserve=1024)
        controller.register("slow", lambda _p: None, cpu_us=10.0)
        pool = MemoryPool([node])
        finish = []

        def client():
            local = RdmaEndpoint(engine, pool)
            yield from local.rpc(node, "slow", None)
            finish.append(engine.now)

        for _ in range(4):
            engine.spawn(client())
        engine.run()
        # all four served in parallel: spread well under serialized time
        assert max(finish) - min(finish) < 10.0

    def test_controller_attaches_to_node(self, setup):
        _engine, node, controller, _ep = setup
        assert node.controller is controller
        assert controller.cores == 1
