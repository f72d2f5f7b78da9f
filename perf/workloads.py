"""The six workloads and the loops that drive them.

Every workload runs as a few *sections*; a section sets the system up from
scratch (timed as ``setup_s``), warms it, and measures.  Real sections are a
whole cluster lifecycle (launch, preload, warm, three measured windows,
shutdown, leak check); sim and cachesim sections replay the same seeded
inputs, so their simulated statistics must come out identical every time.

Load shape on the real substrate: closed loop, one loadgen process, one
thread, 2 client tasks = 2 connections, 1 memory-node process.  The loop is
``runtime.loadgen._client_loop`` with windows, spans and a byte check added:
a Get that misses is followed by a cache-aside Set, and a window ends only
after the runtime's posted writes have drained.

Timing is reported for the *quiet* machine.  The reference box is a shared
2-vCPU VM whose speed moves by 30-40 % for minutes at a time, so raw timings
swing by 20-35 % from run to run.  Each run therefore measures many short
windows, takes the machine's slowness (``reference.slowness``) at the edges
of every one, divides each timing by it, and reports medians: over all
windows on the real substrate; for the seeded sim and cachesim sections,
whose windows repeat the very same work, over the repeats of each window.
Set-up time and CPU per operation are treated the same way.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.bench.hitrate import make_hit_cache, replay
from repro.bench.runner import Feed, Harness, preload
from repro.bench.systems import build_ditto, trace_feeds
from repro.core.client import CacheOperationError
from repro.rdma.verbs import RdmaFaultError
from repro.runtime.client import WallClockRuntime, drive
from repro.runtime.cluster import RealCluster
from repro.runtime.harness import RealClusterHarness
from repro.workloads import ZipfianGenerator, make_ycsb
from repro.workloads.traces import phase_switch_trace, webmail_like_trace

from reference import slowness
from stats import median
from tracing import SpanCluster, SpanRecorder

VALUE_BYTES = 232
CLIENTS = 2
#: Measured windows per real section, and per sim section.  Many short
#: windows: the machine's slowness is sampled between them, and the closer
#: the samples, the better they describe the window.
WINDOWS = 40
SIM_WINDOWS = 16
#: Real windows per CPU-time sample; preloaded keys per drain.
CPU_GROUP = 10
PRELOAD_CHUNK = 128
#: Keys sampled per client per section; the stream wraps if a window is
#: fast enough to use them all.
STREAM_BLOCK = 1 << 17
_TICKS = os.sysconf("SC_CLK_TCK")

@dataclass(frozen=True)
class RealSpec:
    capacity: int
    keys: int
    preload: int
    read_ratio: float
    warm_ops: int
    shm_reads: bool = False


REAL = {
    "real-read-hot": RealSpec(4096, 2000, 2000, 0.95, 4000),
    "real-write-evict": RealSpec(1024, 8000, 1024, 0.50, 3000),
    "real-shm-read-hot": RealSpec(4096, 2000, 2000, 0.95, 10000,
                                  shm_reads=True),
}
SIM = ("sim-ycsb-b", "sim-evict-trace")
HITRATE_SYSTEMS = ("ditto", "ditto-lru", "ditto-lfu", "cm-lru")
NAMES = (*REAL, *SIM, "hitrate-replay")


@dataclass
class Run:
    """What one pass over one workload measured, section by section."""

    #: Samples; the timings among them are for the quiet machine (divided
    #: by the slowness measured beside them).  Set-up seconds and hit rate:
    #: one per section.  Operations per host second: one per window (real)
    #: or section.  CPU microseconds per operation: one per window group
    #: or section.
    setup_s: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    cpu_us: List[float] = field(default_factory=list)
    hit_rate: List[float] = field(default_factory=list)
    #: Every slowness sample of the pass, in the order taken.
    slowness: List[float] = field(default_factory=list)
    #: What the pass reports for the second and the third.
    ops_per_s: float = 0.0
    cpu_us_per_op: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Checks that did not hold; empty means the outputs are correct.
    problems: List[str] = field(default_factory=list)
    #: Family-specific raw numbers behind the per-layer metrics.
    detail: Dict = field(default_factory=dict)


def _typical_repeats(seconds: List[List[float]]) -> float:
    """Seconds for all windows when each takes the median of its repeats.

    ``seconds[s][w]`` is what window ``w`` took in section ``s``; window
    ``w`` does the same work in every section.
    """
    return sum(median(column) for column in zip(*seconds))


def _between(samples: List[float]) -> float:
    """Slowness of the stretch between the last two samples."""
    return (samples[-2] + samples[-1]) / 2.0


def value_for(key_id: int) -> bytes:
    """The 232 B value every Set writes and every hit is checked against."""
    return (b"%08d" % (key_id % 100_000_000)) * (VALUE_BYTES // 8)


def scaled(n: int, size: float) -> int:
    return max(1, int(n * size))


# -- real substrate ---------------------------------------------------------


class ClientStream:
    """One client's op stream, derived exactly as ``loadgen._client_loop``
    derives it: Zipfian keys from ``seed``, Get/Set draws from
    ``random.Random(seed)``."""

    def __init__(self, read_ratio: float, n_keys: int, seed: int,
                 block: int = STREAM_BLOCK):
        self.keys = ZipfianGenerator(n_keys, theta=0.99, seed=seed).sample(
            block
        )
        self.rng = random.Random(seed)
        self.read_ratio = read_ratio
        self.pos = 0

    def next(self):
        key_id = int(self.keys[self.pos % len(self.keys)])
        self.pos += 1
        return key_id, self.rng.random() < self.read_ratio


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong_bytes = 0
        self.get_us: List[float] = []
        self.set_us: List[float] = []


async def client_loop(client, stream: ClientStream, tally: Tally,
                      ops: int = 0, deadline: float = 0.0,
                      rec: Optional[SpanRecorder] = None) -> None:
    """Closed loop: ``ops`` operations, or until ``deadline`` if ops is 0."""
    done = 0
    endpoint = client.ep
    clock = time.perf_counter
    while (done < ops) if ops else (clock() < deadline):
        key_id, is_read = stream.next()
        key = b"key-%d" % key_id
        value = value_for(key_id)
        if rec is not None:
            span = rec.begin("op.get" if is_read else "op.set",
                             lane=endpoint.lane)
            endpoint.parent = span
        ok = True
        start = clock()
        try:
            if is_read:
                got = await drive(client.get(key))
                if got is None:
                    # Cache-aside fill, as the sim harness models misses.
                    await drive(client.set(key, value))
                elif got != value:
                    tally.wrong_bytes += 1
                    ok = False
            else:
                await drive(client.set(key, value))
        except (CacheOperationError, RdmaFaultError):
            ok = False
        elapsed_us = (clock() - start) * 1e6
        if rec is not None:
            rec.end(span)
            endpoint.parent = -1
        done += 1
        tally.attempted += 1
        if ok:
            (tally.get_us if is_read else tally.set_us).append(elapsed_us)
        else:
            tally.failed += 1


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS  # utime + stime


class _DestroyedTasks(logging.Handler):
    """Counts asyncio's 'Task was destroyed but it is pending' reports."""

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "Task was destroyed" in record.getMessage():
            self.count += 1


async def _real_section(spec: RealSpec, size: float, descriptor: Dict,
                        harness: RealClusterHarness, seed: int,
                        window_s: float, rec: Optional[SpanRecorder],
                        setup_span: int, profiler) -> Dict:
    entry = descriptor["nodes"][0]
    server_pid = harness.procs[0].pid
    start = time.perf_counter()
    runtime = WallClockRuntime()
    if rec is not None:
        cluster = SpanCluster(descriptor, rec, runtime=runtime,
                              shm_reads=spec.shm_reads)
    else:
        cluster = RealCluster(descriptor, runtime=runtime,
                              shm_reads=spec.shm_reads)
    clients = cluster.add_clients(CLIENTS)
    n_keys = scaled(spec.keys, size)
    try:
        # The rest of the set-up (the caller timed the launch): the
        # clients, then the preload, drained chunk by chunk.
        preload_keys = scaled(spec.preload, size)
        for first in range(0, preload_keys, PRELOAD_CHUNK):
            for key_id in range(first, min(first + PRELOAD_CHUNK,
                                           preload_keys)):
                await drive(clients[0].set(
                    b"key-%d" % key_id, value_for(key_id)))
            await runtime.drain_background()
        connected_s = time.perf_counter() - start
        if rec is not None:
            rec.end(setup_span)
        slow = [slowness()]

        streams = [
            ClientStream(spec.read_ratio, n_keys, seed * 1_000_003 + index)
            for index in range(CLIENTS)
        ]
        warm = Tally()
        warm_ops = -(-scaled(spec.warm_ops, size) // CLIENTS)
        await asyncio.gather(*(
            client_loop(c, s, warm, ops=warm_ops)
            for c, s in zip(clients, streams)
        ))
        await runtime.drain_background()

        slow.append(slowness())
        reference_cpu_s = 0.0  # the loadgen's CPU time is reported without
        tally = Tally()
        hits0, misses0 = cluster.hits, cluster.misses
        evictions0 = sum(c.evictions for c in clients)
        counters0 = cluster.counters.as_dict()
        frames0 = harness.raw_rpc(entry, "__stats__", None)["ops_served"]
        # (loadgen, server) CPU seconds at the edges of each window group.
        cpu_edges = [(time.process_time(), _proc_cpu_s(server_pid))]
        windows = []
        for index in range(WINDOWS):
            attempted0 = tally.attempted
            if profiler is not None:
                profiler.enable()
            if rec is not None:
                rec.on = True
                window = rec.begin("window")
            start = time.perf_counter()
            await asyncio.gather(*(
                client_loop(c, s, tally, deadline=start + window_s, rec=rec)
                for c, s in zip(clients, streams)
            ))
            pending = await runtime.drain_background()
            wall_s = time.perf_counter() - start
            if rec is not None:
                rec.end(window)
                rec.on = False
            if profiler is not None:
                profiler.disable()
            cpu0 = time.process_time()
            slow.append(slowness())
            reference_cpu_s += time.process_time() - cpu0
            windows.append({
                "ops": tally.attempted - attempted0, "wall_s": wall_s,
                "bg_pending": pending, "slowness": _between(slow),
            })
            if (index + 1) % CPU_GROUP == 0:
                cpu_edges.append((time.process_time() - reference_cpu_s,
                                  _proc_cpu_s(server_pid)))
        server = harness.raw_rpc(entry, "__stats__", None)
        counters1 = cluster.counters.as_dict()
    finally:
        await cluster.aclose()
    groups = [windows[i:i + CPU_GROUP]
              for i in range(0, WINDOWS, CPU_GROUP)]
    return {
        "connected_s": connected_s,
        "slowness": slow,
        "windows": windows,
        # CPU of loadgen + server per op, one per group of windows: the
        # server's clock ticks at 10 ms, too coarse for a single window.
        "cpu_us": [
            (sum(after) - sum(before)) * 1e6
            / max(1, sum(w["ops"] for w in group))
            / median([w["slowness"] for w in group])
            for before, after, group in zip(cpu_edges, cpu_edges[1:], groups)
        ],
        "tally": tally,
        "hits": cluster.hits - hits0,
        "misses": cluster.misses - misses0,
        "evictions": sum(c.evictions for c in clients) - evictions0,
        "counters": {
            key: counters1[key] - counters0.get(key, 0) for key in counters1
        },
        "loadgen_cpu_s": cpu_edges[-1][0] - cpu_edges[0][0],
        "server_cpu_s": cpu_edges[-1][1] - cpu_edges[0][1],
        # Both __stats__ polls count themselves; the second is not ours.
        "frames": server["ops_served"] - frames0 - 1,
        "connections": server["connections"] - 1,
        "server_metrics": server["metrics"],
        "cas_lost": sum(
            getattr(c.ep, "cas_lost", 0) for c in clients
        ),
    }


def run_real(name: str, seed: int, seconds: float, size: float = 1.0,
             sections: int = 3, armed: bool = False,
             rec: Optional[SpanRecorder] = None, profiler=None) -> Run:
    """``armed`` turns the server's ``__stats_arm__`` instruments on;
    ``rec`` adds a span per operation and verb; ``profiler`` is enabled
    around the measured windows."""
    spec = REAL[name]
    run = Run()
    window_s = seconds / (sections * WINDOWS)
    sections_out = []
    watcher = _DestroyedTasks()
    asyncio_log = logging.getLogger("asyncio")
    asyncio_log.addHandler(watcher)
    propagate, asyncio_log.propagate = asyncio_log.propagate, False
    try:
        for section in range(sections):
            setup = rec.begin("setup") if rec is not None else -1
            slow_before = slowness()
            start = time.perf_counter()
            harness = RealClusterHarness(
                capacity_objects=scaled(spec.capacity, size),
                num_clients=CLIENTS, num_memory_nodes=1,
                seed=seed + section,
            )
            try:
                descriptor = harness.launch()
                launched = time.perf_counter()
                if armed:
                    harness.raw_rpc(
                        descriptor["nodes"][0], "__stats_arm__", None
                    )
                out = asyncio.run(_real_section(
                    spec, size, descriptor, harness, seed + section,
                    window_s, rec, setup, profiler,
                ))
            finally:
                harness.shutdown()
                leaks = harness.leak_report()
                harness.unlink_leaked()
            if not leaks["clean"]:
                run.problems.append(f"{name}: leak report {leaks}")
            sections_out.append(out)
            tally = out["tally"]
            # out["slowness"][0] was taken as the set-up ended.
            run.setup_s.append(
                (launched - start + out["connected_s"])
                / ((slow_before + out["slowness"][0]) / 2.0))
            run.slowness.extend([slow_before] + out["slowness"])
            run.rates.extend(w["ops"] / w["wall_s"] * w["slowness"]
                             for w in out["windows"])
            run.cpu_us.extend(out["cpu_us"])
            run.hit_rate.append(
                out["hits"] / max(1, out["hits"] + out["misses"])
            )
            run.attempted += tally.attempted
            run.failed += tally.failed
            if tally.wrong_bytes:
                run.problems.append(
                    f"{name}: {tally.wrong_bytes} hits returned wrong bytes"
                )
            if tally.failed:
                run.problems.append(
                    f"{name}: {tally.failed} of {tally.attempted} ops "
                    "failed on an unfaulted cluster"
                )
        gc.collect()  # destroyed-task reports are made at collection time
    finally:
        asyncio_log.removeHandler(watcher)
        asyncio_log.propagate = propagate
    run.ops_per_s = median(run.rates)
    run.cpu_us_per_op = median(run.cpu_us)
    run.detail = {
        "sections": sections_out,
        "destroyed_tasks": watcher.count,
    }
    return run


# -- sim substrate ----------------------------------------------------------


def _sim_build(name: str, seed: int, size: float):
    """Cluster, per-client feeds and the harness settings of one workload."""
    if name == "sim-ycsb-b":
        n_keys = scaled(5000, size)
        cluster = build_ditto(10_000, 32, seed=seed)
        feeds = [
            Feed.from_requests(make_ycsb(
                "B", n_keys=n_keys, seed=seed * 1000 + index, client_id=index
            ).requests(scaled(20_000, size)))
            for index in range(32)
        ]
        preload(cluster.engine, cluster.clients, range(n_keys),
                value_size=VALUE_BYTES)
        return cluster, feeds, 0.0, 200.0, 800.0
    trace = phase_switch_trace(
        scaled(120_000, size), scaled(4096, size), phases=4, seed=seed
    )
    footprint = len(np.unique(trace))
    cluster = build_ditto(max(16, footprint // 10), 16, seed=seed,
                          num_memory_nodes=2)
    return cluster, trace_feeds(trace, 16), 500.0, 16_000.0, 32_000.0


def run_sim(name: str, seed: int, seconds: float, size: float = 1.0,
            sections: int = 3, rec: Optional[SpanRecorder] = None,
            profiler=None) -> Run:
    """``_sim_build`` gives the simulated microseconds of warm-up and of
    measurement per second of ``seconds``, sized so that a run takes about
    ``seconds`` on the quiet reference box; host time is whatever it takes."""
    run = Run()
    stats, host_s, cpu_s = [], [], []
    for _ in range(sections):
        setup = rec.begin("setup") if rec is not None else -1
        slow = [slowness()]
        start = time.perf_counter()
        cluster, feeds, penalty, warm_us, window_us = _sim_build(
            name, seed, size
        )
        harness = Harness(cluster.engine, value_size=VALUE_BYTES,
                          miss_penalty_us=penalty)
        harness.launch_all(cluster.clients, feeds)
        elapsed = time.perf_counter() - start
        slow.append(slowness())
        run.setup_s.append(elapsed / _between(slow))
        if rec is not None:
            rec.end(setup)
        harness.warm(warm_us * seconds)
        slow.append(slowness())
        counters0 = cluster.counters.as_dict()
        evictions0 = sum(c.evictions for c in cluster.clients)
        windows, hosts, cpus = [], [], []
        for _window in range(SIM_WINDOWS):
            span = rec.begin("window") if rec is not None else -1
            if profiler is not None:
                profiler.enable()
            cpu0, host0 = time.process_time(), time.perf_counter()
            result = harness.measure(window_us * seconds / SIM_WINDOWS)
            host, cpu = (time.perf_counter() - host0,
                         time.process_time() - cpu0)
            if profiler is not None:
                profiler.disable()
            slow.append(slowness())
            hosts.append(host / _between(slow))
            cpus.append(cpu / _between(slow))
            if rec is not None:
                rec.end(span)
            windows.append({
                "ops": result.ops,
                "duration_us": result.duration_us,
                "hits": result.hits,
                "misses": result.misses,
                "get_p99_us": result.get_latency.percentile(99),
            })
        harness.stop_all()
        counters = cluster.counters.as_dict()
        ops = sum(w["ops"] for w in windows)
        hits = sum(w["hits"] for w in windows)
        stats.append({
            "windows": windows,
            "ops": ops,
            "sim_mops": ops / sum(w["duration_us"] for w in windows),
            "sim_p99_us": median([w["get_p99_us"] for w in windows]),
            "evictions": sum(c.evictions for c in cluster.clients)
                         - evictions0,
            "counters": {
                key: counters[key] - counters0.get(key, 0)
                for key in counters
            },
        })
        host_s.append(hosts)
        cpu_s.append(cpus)
        run.slowness.extend(slow)
        run.rates.append(ops / sum(hosts))
        run.cpu_us.append(sum(cpus) * 1e6 / max(1, ops))
        run.hit_rate.append(
            hits / max(1, hits + sum(w["misses"] for w in windows))
        )
        run.attempted += ops
        run.failed += harness.failed_ops
    if any(other != stats[0] for other in stats[1:]):
        run.problems.append(
            f"{name}: simulated statistics differ between repeats of one seed"
        )
    run.ops_per_s = stats[0]["ops"] / _typical_repeats(host_s)
    run.cpu_us_per_op = _typical_repeats(cpu_s) * 1e6 / stats[0]["ops"]
    run.detail = {"stats": stats[0]}
    return run


# -- cachesim tier ----------------------------------------------------------


def run_hitrate(seed: int, seconds: float, size: float = 1.0,
                sections: int = 3, rec: Optional[SpanRecorder] = None,
                profiler=None) -> Run:
    """Two traces through four systems; one replay is one window."""
    run = Run()
    accesses = scaled(48_000, seconds)
    n_keys = scaled(16_384, size)
    outcomes, host_s, cpu_s = [], [], []
    for _ in range(sections):
        setup = rec.begin("setup") if rec is not None else -1
        slow = [slowness()]
        start = time.perf_counter()
        traces = {
            "phase-switch": phase_switch_trace(accesses, n_keys, seed=seed),
            "webmail": webmail_like_trace(accesses, n_keys, seed=seed),
        }
        capacity = {
            label: max(1, len(np.unique(trace)) // 10)
            for label, trace in traces.items()
        }
        elapsed = time.perf_counter() - start
        slow.append(slowness())
        run.setup_s.append(elapsed / _between(slow))
        if rec is not None:
            rec.end(setup)
        hit_rates, hosts, cpus = {}, [], []
        for label, trace in traces.items():
            for system in HITRATE_SYSTEMS:
                span = (rec.begin(f"replay.{label}.{system}")
                        if rec is not None else -1)
                if profiler is not None:
                    profiler.enable()
                cpu0, host0 = time.process_time(), time.perf_counter()
                cache = make_hit_cache(system, capacity[label], seed=seed)
                hit_rates[f"{label}/{system}"] = replay(cache, trace)
                host, cpu = (time.perf_counter() - host0,
                             time.process_time() - cpu0)
                if profiler is not None:
                    profiler.disable()
                slow.append(slowness())
                hosts.append(host / _between(slow))
                cpus.append(cpu / _between(slow))
                if rec is not None:
                    rec.end(span)
        replayed = accesses * len(hit_rates)
        outcomes.append(hit_rates)
        host_s.append(hosts)
        cpu_s.append(cpus)
        run.slowness.extend(slow)
        run.rates.append(replayed / sum(hosts))
        run.cpu_us.append(sum(cpus) * 1e6 / replayed)
        run.hit_rate.append(hit_rates["phase-switch/ditto"])
        run.attempted += replayed
    if any(other != outcomes[0] for other in outcomes[1:]):
        run.problems.append(
            "hitrate-replay: hit rates differ between repeats of one seed"
        )
    replayed = accesses * len(outcomes[0])
    run.ops_per_s = replayed / _typical_repeats(host_s)
    run.cpu_us_per_op = _typical_repeats(cpu_s) * 1e6 / replayed
    run.detail = {"hit_rates": outcomes[0]}
    return run


def run_workload(name: str, seed: int, seconds: float, size: float = 1.0,
                 sections: int = 3, armed: bool = False,
                 rec: Optional[SpanRecorder] = None, profiler=None) -> Run:
    """One pass over ``name``; ``armed`` only means something on real-*."""
    if name in REAL:
        return run_real(name, seed, seconds, size, sections, armed, rec,
                        profiler)
    if name in SIM:
        return run_sim(name, seed, seconds, size, sections, rec, profiler)
    if name == "hitrate-replay":
        return run_hitrate(seed, seconds, size, sections, rec, profiler)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
