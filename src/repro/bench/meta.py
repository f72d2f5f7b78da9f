"""Micro-benchmarks of the simulation substrate's hot loops.

Three functions, each timing one layer with nothing else running:

- :func:`bench_engine` — events/sec of N processes ping-ponging Timeouts
  through one engine;
- :func:`bench_rdma` — READ verbs/sec through the full verb layer
  (endpoint → NIC booking → memory node);
- :func:`bench_cachesim` — accesses/sec of a Zipfian trace replayed through
  ``SampledAdaptiveCache`` with the adaptive (lru, lfu) configuration, on
  the numpy-vectorized replay or the scalar loop.

``perf/probes.py`` reports their rates as the ``sim`` and ``cachesim``
per-layer rows of the layered benchmark (``perf/run.py``).
"""

from __future__ import annotations

import os
import time
from typing import Dict

from ..cachesim import SampledAdaptiveCache
from ..memory import MemoryNode, MemoryPool
from ..rdma import RdmaEndpoint
from ..sim import Engine, Timeout
from ..workloads import ZipfianGenerator


def bench_engine(
    processes: int = 100, events_per_process: int = 2000, batch: bool = True
) -> Dict:
    """Pure event-loop throughput: Timeout-only processes.

    ``batch`` selects nothing: the engine has one event loop.  The keyword
    stays because ``perf/probes.py`` passes it.
    """
    engine = Engine()
    pause = Timeout(1.0)  # immutable; hoisting it keeps the loop allocation-free

    def ping(n):
        for _ in range(n):
            yield pause

    for _ in range(processes):
        engine.spawn(ping(events_per_process))
    # spawn() schedules one extra step per process (the first resume).
    events = processes * events_per_process + processes
    started = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - started
    return {
        "events": events,
        "elapsed_s": elapsed,
        "events_per_sec": events / elapsed,
    }


def bench_rdma(
    clients: int = 32, verbs_per_client: int = 5000, burst: int = 0
) -> Dict:
    """The timed tier's per-op path: READ verbs through NIC booking.

    ``burst`` selects nothing: every READ is one NIC booking and one engine
    event.  The keyword stays because ``perf/probes.py`` passes it.
    """
    engine = Engine()
    node = MemoryNode(engine, size=1 << 20)
    pool = MemoryPool([node])

    def client(endpoint, n):
        for i in range(n):
            yield from endpoint.read((i * 64) % 65536, 64)

    for _ in range(clients):
        engine.spawn(client(RdmaEndpoint(engine, pool), verbs_per_client))
    verbs = clients * verbs_per_client
    started = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - started
    return {
        "verbs": verbs,
        "elapsed_s": elapsed,
        "verbs_per_sec": verbs / elapsed,
    }


def bench_cachesim(
    n_accesses: int = 400_000,
    n_keys: int = 16384,
    capacity: int = 2048,
    theta: float = 0.99,
    vectorized: bool = True,
) -> Dict:
    """Trace-replay throughput of the adaptive cache simulator.

    ``vectorized=False`` forces the scalar per-access loop (via
    ``REPRO_VECTORIZE=0``, the same switch users have); the default lets
    ``access_many`` pick the numpy replay.  Results are byte-identical
    either way — that identity is what ``tests/cachesim/test_vectorized.py``
    enforces.
    """
    trace = ZipfianGenerator(n_keys, theta=theta, seed=11).sample(n_accesses)
    cache = SampledAdaptiveCache(capacity, policies=("lru", "lfu"), seed=0)
    previous = os.environ.get("REPRO_VECTORIZE")
    if not vectorized:
        os.environ["REPRO_VECTORIZE"] = "0"
    try:
        started = time.perf_counter()
        cache.access_many(trace)
        elapsed = time.perf_counter() - started
    finally:
        if not vectorized:
            if previous is None:
                os.environ.pop("REPRO_VECTORIZE", None)
            else:
                os.environ["REPRO_VECTORIZE"] = previous
    return {
        "accesses": n_accesses,
        "elapsed_s": elapsed,
        "accesses_per_sec": n_accesses / elapsed,
        "hit_rate": cache.hit_rate(),
        "evictions": cache.evictions,
    }
