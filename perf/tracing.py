"""Benchmark-side tracing: spans, a delegating verb transport, CPU profile.

Nothing here lives inside the program under test.  Spans are recorded
around the benchmark's own calls into each layer (an op span around
``client.get``/``client.set``, a child span around each verb the client
issues), kept in memory, and written out as a Chrome trace when the
benchmark ends.  One op and all the verbs it caused share the op span's
index as their id.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from typing import Dict, Generator, List, Sequence, Tuple

from repro.rdma.transport import VerbTransport
from repro.runtime.cluster import RealCluster

from stats import median

#: ``host_share.<layer>`` rows, in print order; they sum to 1.0.
HOST_LAYERS = (
    "sim", "rdma", "memory", "core", "cachesim", "workloads", "runtime",
    "obs", "bench", "asyncio", "codec", "numpy", "other",
)

#: span tuple fields
NAME, PARENT, LANE, START, END = range(5)


class SpanRecorder:
    """In-memory span list; ``begin`` returns the index ``end`` closes."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Verb spans are recorded only while a measured window is open.
        self.on = False
        self._t0 = time.perf_counter()

    def now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    def begin(self, name: str, parent: int = -1, lane: int = 0) -> int:
        self.spans.append([name, parent, lane, self.now_us(), -1.0])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][END] = self.now_us()

    def instant(self, name: str, parent: int, lane: int = 0) -> None:
        now = self.now_us()
        self.spans.append([name, parent, lane, now, now])

    def write_chrome_trace(self, path: str) -> None:
        events = []
        for index, (name, parent, lane, start, end) in enumerate(self.spans):
            if end < 0:
                continue  # never closed: the op failed mid-flight
            op_id = index
            while self.spans[op_id][PARENT] >= 0:
                op_id = self.spans[op_id][PARENT]
            events.append({
                "name": name, "ph": "X", "pid": 0, "tid": lane,
                "ts": round(start, 3), "dur": round(end - start, 3),
                "args": {"id": op_id, "parent": parent},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)


def covered(intervals: Sequence[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: its duration minus what its child spans cover of it."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0 and span[END] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    out = []
    for index, span in enumerate(spans):
        if span[END] < 0:
            out.append(0.0)
            continue
        duration = span[END] - span[START]
        out.append(duration - covered(
            children.get(index, ()), span[START], span[END]
        ))
    return out


class SpanTransport(VerbTransport):
    """Delegates every verb to ``inner`` inside a child span of ``parent``.

    The load loop sets ``parent`` to the open op span before it calls the
    client; background posts are recorded as instants (their WRITE/FAA
    runs later, off the op's blocking path, through ``inner`` directly).
    """

    def __init__(self, inner: VerbTransport, recorder: SpanRecorder,
                 lane: int):
        self.inner = inner
        self.rec = recorder
        self.lane = lane
        self.parent = -1
        #: CAS verbs that returned another value than they expected.
        self.cas_lost = 0

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def _span(self, name: str, gen: Generator) -> Generator:
        if not self.rec.on or self.parent < 0:
            return (yield from gen)
        index = self.rec.begin(name, self.parent, self.lane)
        try:
            return (yield from gen)
        finally:
            self.rec.end(index)

    def read(self, addr, length):
        return self._span("verb.read", self.inner.read(addr, length))

    def write(self, addr, data):
        return self._span("verb.write", self.inner.write(addr, data))

    def cas(self, addr, expected, new):
        old = yield from self._span(
            "verb.cas", self.inner.cas(addr, expected, new)
        )
        if self.rec.on and old != expected & 0xFFFFFFFFFFFFFFFF:
            self.cas_lost += 1
        return old

    def faa(self, addr, delta):
        return self._span("verb.faa", self.inner.faa(addr, delta))

    def rpc(self, node, op, payload=None, size=64):
        return self._span(
            "verb.rpc", self.inner.rpc(node, op, payload, size)
        )

    def post_write(self, addr, data):
        if self.rec.on and self.parent >= 0:
            self.rec.instant("post.write", self.parent, self.lane)
        return self.inner.post_write(addr, data)

    def post_faa(self, addr, delta):
        if self.rec.on and self.parent >= 0:
            self.rec.instant("post.faa", self.parent, self.lane)
        return self.inner.post_faa(addr, delta)


class SpanCluster(RealCluster):
    """A ``RealCluster`` whose endpoints record a span per verb."""

    def __init__(self, descriptor, recorder: SpanRecorder, **kwargs):
        self.recorder = recorder
        super().__init__(descriptor, **kwargs)

    def make_endpoint(self, client):
        return SpanTransport(
            super().make_endpoint(client), self.recorder,
            lane=client.client_id + 1,
        )


def new_profiler(cpu_time: bool) -> cProfile.Profile:
    """``cpu_time`` for the real substrate, where the loadgen mostly waits:
    on the CPU clock a blocking ``epoll`` costs nothing, so shares say where
    the process's own CPU goes.  The clock is a system call per event, five
    times the default timer's cost, so CPU-bound sim and cachesim runs, where
    wall and CPU time agree anyway, keep the default."""
    if cpu_time:
        return cProfile.Profile(timer=time.process_time)
    return cProfile.Profile()


def _layer_of(filename: str, funcname: str) -> str:
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        package = path.split("/repro/", 1)[1].split("/", 1)[0]
        return package if package in HOST_LAYERS else "other"
    if "/perf/" in path:
        return "bench"
    if "numpy" in path or "numpy" in funcname:
        return "numpy"
    if "asyncio" in path or "selectors" in path:
        return "asyncio"
    if "pickle" in path or "pickle" in funcname or "struct" in funcname \
            or path.endswith("/struct.py"):
        return "codec"
    if path == "~" and any(
        token in funcname for token in ("select.", "socket", "_asyncio")
    ):
        return "asyncio"
    return "other"


def host_shares(profiler: cProfile.Profile) -> Dict[str, float]:
    """Self time (tottime) per layer as a share of the profiled total."""
    totals = dict.fromkeys(HOST_LAYERS, 0.0)
    for (filename, _line, funcname), row in pstats.Stats(
        profiler
    ).stats.items():
        totals[_layer_of(filename, funcname)] += row[2]
    whole = sum(totals.values())
    if whole <= 0.0:
        return totals
    return {layer: value / whole for layer, value in totals.items()}


def op_breakdown(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Per-op core self time and verb counts from op spans and their
    children.  A Get that missed includes its cache-aside Set, exactly as
    its latency sample does."""
    selfs = self_times(spans)
    children: Dict[int, Dict[str, int]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            tally = children.setdefault(span[PARENT], {})
            tally[span[NAME]] = tally.get(span[NAME], 0) + 1

    def ops(name: str) -> List[int]:
        return [i for i, span in enumerate(spans)
                if span[NAME] == name and span[END] >= 0]

    def per_op(indices: List[int], prefix: str = "") -> float:
        if not indices:
            return 0.0
        return sum(
            count for i in indices
            for child, count in children.get(i, {}).items()
            if child.startswith(prefix)
        ) / len(indices)

    gets, sets = ops("op.get"), ops("op.set")
    def durations(indices: List[int]) -> List[float]:
        return [spans[i][END] - spans[i][START] for i in indices]

    return {
        "client.get_traced_us": median(durations(gets)),
        "client.read_wait_us": median(durations(ops("verb.read"))),
        "core.self_us_per_get": median([selfs[i] for i in gets]),
        "core.self_us_per_set": median([selfs[i] for i in sets]),
        "client.verbs_per_get": per_op(gets),
        "client.verbs_per_set": per_op(sets),
        "client.reads_per_get": per_op(gets, "verb.read"),
        "client.cas_per_set": per_op(sets, "verb.cas"),
    }
