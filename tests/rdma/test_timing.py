"""Timing-model tests: verb latencies must follow the documented cost model."""

import pytest

from repro.memory import MemoryNode, MemoryPool
from repro.rdma import NetworkParams, RdmaEndpoint
from repro.sim import Engine


def make_fabric(**param_overrides):
    params = NetworkParams(**param_overrides)
    engine = Engine()
    node = MemoryNode(engine, size=1 << 16, params=params)
    pool = MemoryPool([node])
    return engine, node, RdmaEndpoint(engine, pool, params)


def run_and_time(engine, gen):
    start = engine.now
    engine.run_process(gen)
    return engine.now - start


class TestUncontendedLatency:
    def test_read_latency_formula(self):
        engine, _node, ep = make_fabric(
            rtt_us=2.0, client_overhead_us=0.3, nic_rate_mops=10.0,
            bandwidth_bytes_per_us=1000.0,
        )
        elapsed = run_and_time(engine, ep.read(0, 100))
        expected = 0.3 + 2.0 + (1.0 / 10.0) + (100 / 1000.0)
        assert elapsed == pytest.approx(expected)

    def test_cas_pays_double_nic_cost(self):
        engine, _node, ep = make_fabric(
            rtt_us=2.0, client_overhead_us=0.0, nic_rate_mops=10.0,
            bandwidth_bytes_per_us=1e9,
        )
        read_latency = run_and_time(engine, ep.read(0, 8))
        cas_latency = run_and_time(engine, ep.cas(0, 0, 1))
        assert cas_latency - read_latency == pytest.approx(0.1)

    def test_payload_adds_bandwidth_time(self):
        engine, _node, ep = make_fabric(bandwidth_bytes_per_us=100.0)
        small = run_and_time(engine, ep.read(0, 10))
        large = run_and_time(engine, ep.read(0, 1010))
        assert large - small == pytest.approx(10.0)


class TestQueueing:
    def test_backlog_emerges_past_nic_rate(self):
        """Offered load above the message rate queues at the NIC."""
        params = dict(
            rtt_us=0.0, client_overhead_us=0.0, nic_rate_mops=1.0,
            bandwidth_bytes_per_us=1e12,
        )
        engine, node, _ep = make_fabric(**params)
        finish = []

        def client():
            ep = RdmaEndpoint(engine, MemoryPool([node]), node.params)
            yield from ep.read(0, 8)
            finish.append(engine.now)

        for _ in range(10):
            engine.spawn(client())
        engine.run()
        # service time 1 us each, all arriving at t=0: the k-th leaves at ~k.
        assert finish[-1] == pytest.approx(10.0, abs=1e-6)
        assert node.nic.messages == 10

    def test_fifo_order_preserved(self):
        engine, node, _ep = make_fabric(rtt_us=0.0, client_overhead_us=0.0)
        order = []

        def client(name, delay):
            ep = RdmaEndpoint(engine, MemoryPool([node]), node.params)
            if delay:
                yield delay
            yield from ep.read(0, 8)
            order.append(name)

        engine.spawn(client("first", 0.0))
        engine.spawn(client("second", 0.001))
        engine.spawn(client("third", 0.002))
        engine.run()
        assert order == ["first", "second", "third"]


class TestRpcTiming:
    def test_rpc_includes_controller_queueing(self):
        from repro.memory import Controller

        engine, node, ep = make_fabric(rtt_us=2.0, client_overhead_us=0.0)
        controller = Controller(node, cores=1)
        controller.register("slow", lambda _p: None, cpu_us=50.0)
        elapsed = run_and_time(engine, ep.rpc(node, "slow", None))
        assert elapsed >= 2.0 + 50.0
