"""Isolated per-layer probes: each times calls into one layer's public
functions, with nothing else running.  A traced run adds the probes of the
layers its workload uses; the other layers read 0 there.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict

from repro.bench import meta
from repro.memory import MemoryNode
from repro.runtime import wire
from repro.runtime.client import (NodeHandle, RealEndpoint,
                                  WallClockRuntime, drive)
from repro.runtime.harness import RealClusterHarness
from repro.runtime.journal import GrantJournal, journal_bytes
from repro.workloads import ZipfianGenerator
from repro.workloads.traces import phase_switch_trace

from stats import median

_REPEATS = 3


def _rate(fn: Callable[[], int], min_s: float = 0.05) -> float:
    """Median calls/s over ``_REPEATS`` timed loops; ``fn`` runs one batch
    and returns how many calls it made."""
    rates = []
    for _ in range(_REPEATS):
        calls = 0
        start = time.perf_counter()
        while True:
            calls += fn()
            elapsed = time.perf_counter() - start
            if elapsed >= min_s:
                break
        rates.append(calls / elapsed)
    return median(rates)


def wire_probes() -> Dict[str, float]:
    body = wire.READ_BODY.pack(4096, 256)
    response = wire.response_frame(7, wire.ST_OK, bytes(256))
    rpc_body = wire.pack_rpc("alloc_segment", (262144, 3), 99)

    def request():
        for req_id in range(1000):
            wire.request_frame(wire.OP_READ, req_id, body)
        return 1000

    def parse():
        for _ in range(1000):
            (length,) = wire.HEADER.unpack_from(response)
            frame = response[wire.HEADER.size:wire.HEADER.size + length]
            wire.RESP.unpack_from(frame)
            frame[wire.RESP.size:]
        return 1000

    def pack():
        for token in range(1000):
            wire.pack_rpc("alloc_segment", (262144, 3), token)
        return 1000

    def unpack():
        for _ in range(1000):
            wire.unpack_rpc(rpc_body)
        return 1000

    return {
        "wire.request_frame_per_s": _rate(request),
        "wire.response_parse_per_s": _rate(parse),
        "wire.pack_rpc_per_s": _rate(pack),
        "wire.unpack_rpc_per_s": _rate(unpack),
    }


def memory_probes() -> Dict[str, float]:
    node = MemoryNode(None, size=1 << 20)

    def read():
        for i in range(1000):
            node.read_bytes((i * 64) & 0xFFFF, 64)
        return 1000

    def cas():
        for i in range(1000):
            node.compare_and_swap((i * 8) & 0xFFFF, 0, 0)
        return 1000

    return {
        "node.read_bytes_per_s": _rate(read),
        "node.cas_per_s": _rate(cas),
    }


def journal_probe() -> Dict[str, float]:
    journal = GrantJournal(memoryview(bytearray(journal_bytes())))

    def fill():
        journal.initialize(0)
        for index in range(journal.capacity):
            journal.record_alloc(index << 18, 1 << 18, index & 7, index + 1,
                                 (index + 1) << 18)
        return journal.capacity

    return {"journal.record_alloc_per_s": _rate(fill)}


def workloads_probes(seed: int) -> Dict[str, float]:
    zipf = ZipfianGenerator(2000, theta=0.99, seed=seed)
    times = []
    for repeat in range(_REPEATS):
        start = time.perf_counter()
        phase_switch_trace(120_000, 4096, phases=4, seed=seed + repeat)
        times.append(time.perf_counter() - start)
    return {
        "workloads.zipf_samples_per_s": _rate(
            lambda: len(zipf.sample(100_000))
        ),
        "workloads.trace_gen_s": median(times),
    }


def _median_of(bench: Callable[..., Dict], key: str, **kwargs) -> float:
    return median([bench(**kwargs)[key] for _ in range(_REPEATS)])


def sim_probes() -> Dict[str, float]:
    """The engine and verb-booking rows of ``repro.bench.meta``, unchanged."""
    return {
        "engine.storm_events_per_s": _median_of(
            meta.bench_engine, "events_per_sec", batch=True),
        "engine.scalar_events_per_s": _median_of(
            meta.bench_engine, "events_per_sec", batch=False),
        "verbs.read_per_s": _median_of(
            meta.bench_rdma, "verbs_per_sec", verbs_per_client=2000),
        "verbs.read_burst_per_s": _median_of(
            meta.bench_rdma, "verbs_per_sec", burst=64),
    }


def cachesim_probes() -> Dict[str, float]:
    kwargs = dict(n_accesses=200_000)
    return {
        "cachesim.scalar_accesses_per_s": _median_of(
            meta.bench_cachesim, "accesses_per_sec", vectorized=False,
            **kwargs),
        "cachesim.vectorized_accesses_per_s": _median_of(
            meta.bench_cachesim, "accesses_per_sec", vectorized=True,
            **kwargs),
    }


async def _server_probes(host: str, port: int, base: int) -> Dict[str, float]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        rtts = []
        for req_id in range(1, 1501):
            start = time.perf_counter()
            writer.write(wire.request_frame(wire.OP_PING, req_id))
            await wire.read_frame(reader)
            rtts.append((time.perf_counter() - start) * 1e6)
        body = wire.READ_BODY.pack(base, 64)
        train = b"".join(
            wire.request_frame(wire.OP_READ, req_id, body)
            for req_id in range(64)
        )
        rates = []
        for _ in range(_REPEATS):
            start = time.perf_counter()
            for _round in range(40):
                writer.write(train)
                for _frame in range(64):
                    await wire.read_frame(reader)
            rates.append(40 * 64 / (time.perf_counter() - start))
    finally:
        writer.close()
        await writer.wait_closed()
    return {
        "server.ping_rtt_us": median(rtts[200:]),
        "server.read_pipelined_per_s": median(rates),
    }


async def _rtt_us(make_verb: Callable[[], object],
                  count: int = 600) -> float:
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        await drive(make_verb())
        samples.append((time.perf_counter() - start) * 1e6)
    return median(samples[count // 6:])


async def _endpoint_probes(nodes) -> Dict[str, float]:
    node = nodes[0]
    addr = node.base + node.size // 2  # heap past the fixed structures
    endpoint = RealEndpoint(WallClockRuntime(), nodes)
    direct = RealEndpoint(WallClockRuntime(), nodes, shm_reads=True)
    payload = bytes(256)
    try:
        return {
            "endpoint.read_rtt_us": await _rtt_us(
                lambda: endpoint.read(addr, 256)),
            "endpoint.write_rtt_us": await _rtt_us(
                lambda: endpoint.write(addr, payload)),
            "endpoint.cas_rtt_us": await _rtt_us(
                lambda: endpoint.cas(addr, 0, 0)),
            "endpoint.rpc_rtt_us": await _rtt_us(
                lambda: endpoint.rpc(node, "get_membership")),
            "endpoint.shm_read_us": await _rtt_us(
                lambda: direct.read(addr, 256), count=6000),
        }
    finally:
        await endpoint.aclose()
        await direct.aclose()


def runtime_probes() -> Dict[str, float]:
    """Server and endpoint round trips against one harness-launched node."""
    harness = RealClusterHarness(capacity_objects=1024, num_clients=1)
    try:
        descriptor = harness.launch()
        entry = descriptor["nodes"][0]
        nodes = [NodeHandle.from_dict(entry)]

        async def probe():
            out = await _server_probes(
                entry["host"], entry["port"], entry["base"])
            out.update(await _endpoint_probes(nodes))
            return out

        return asyncio.run(probe())
    finally:
        harness.shutdown()
        harness.unlink_leaked()
