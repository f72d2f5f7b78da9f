"""Timed-workload harness shared by every throughput/latency experiment.

All systems expose the same client surface (``get``/``set`` generators), so a
single closed-loop driver measures them all:

- :class:`Feed` — a cyclic per-client request source (YCSB stream or a trace
  shard; the paper has clients iteratively replay their shard).
- :class:`Harness` — spawns one driver process per client, applies the
  configurable miss penalty (500 µs in the paper: the cost of fetching a
  missed object from distributed storage before Set-ing it back), and
  measures throughput and latency over explicit windows so warmup is
  excluded and elasticity timelines can be sampled phase by phase.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.client import CacheOperationError
from ..obs.observer import Observability
from ..obs.observer import current as obs_current
from ..sim import Engine, LatencyStats, ThroughputSeries

_KEY = struct.Struct("<Q")

READ, UPDATE, INSERT = 0, 1, 2
_OP_CODES = {"read": READ, "update": UPDATE, "insert": INSERT}


def pack_key(key_id: int) -> bytes:
    """8-byte wire key for an integer key id."""
    return _KEY.pack(key_id & 0xFFFFFFFFFFFFFFFF)


def make_value(size: int) -> bytes:
    return b"v" * size


class Feed:
    """Cyclic (op, key) source for one client."""

    def __init__(self, ops: np.ndarray, keys: np.ndarray):
        if len(ops) != len(keys) or len(ops) == 0:
            raise ValueError("ops and keys must be equal-length and non-empty")
        self._ops = np.asarray(ops, dtype=np.int8)
        self._keys = np.asarray(keys, dtype=np.int64)
        self._pos = 0

    @classmethod
    def from_requests(cls, requests: Iterable[Tuple[str, int]]) -> "Feed":
        pairs = list(requests)
        ops = np.fromiter((_OP_CODES[op] for op, _ in pairs), dtype=np.int8)
        keys = np.fromiter((key for _, key in pairs), dtype=np.int64)
        return cls(ops, keys)

    @classmethod
    def reads(cls, keys: Sequence[int]) -> "Feed":
        """A read-only feed (trace replay; misses are filled by the driver)."""
        arr = np.asarray(keys, dtype=np.int64)
        return cls(np.zeros(len(arr), dtype=np.int8), arr)

    def next(self) -> Tuple[int, int]:
        op = self._ops[self._pos]
        key = self._keys[self._pos]
        self._pos += 1
        if self._pos == len(self._ops):
            self._pos = 0
        return int(op), int(key)


@dataclass
class MeasureResult:
    """Metrics from one measurement window."""

    ops: int
    duration_us: float
    get_latency: LatencyStats
    set_latency: LatencyStats
    hits: int = 0
    misses: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_mops(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return self.ops / self.duration_us

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Harness:
    """Closed-loop driver for any set of clients on one engine."""

    def __init__(
        self,
        engine: Engine,
        value_size: int = 232,
        miss_penalty_us: float = 0.0,
        series_bucket_us: float = 100_000.0,
        tolerate_failures: bool = False,
        obs: Optional[Observability] = None,
    ):
        """``tolerate_failures`` keeps a driver alive when an operation
        fails permanently (:class:`CacheOperationError`) — required for
        chaos runs, where a retry-exhausted Set is a data point, not a
        reason to unwind the engine."""
        self.engine = engine
        self.value = make_value(value_size)
        self.miss_penalty_us = miss_penalty_us
        self.series = ThroughputSeries(series_bucket_us)
        self.tolerate_failures = tolerate_failures
        # Observability (repro.obs): picked up from the runtime so existing
        # experiments need no signature changes; None stays fully inert.
        self.obs = obs if obs is not None else obs_current()
        self.failed_ops = 0
        self._flags: List[dict] = []
        self._measuring = False
        self._ops = 0
        self._get_lat = LatencyStats()
        self._set_lat = LatencyStats()
        self._hits0 = 0
        self._miss0 = 0
        self._clients: List[object] = []

    # -- client management ------------------------------------------------

    def launch(self, client, feed: Feed) -> dict:
        """Start a closed-loop driver for ``client``; returns a stop handle.

        The handle records the driver process and the client so fault
        injection can kill a specific client's loop mid-operation.
        """
        flag = {"stop": False, "client": client}
        self._flags.append(flag)
        self._clients.append(client)
        flag["process"] = self.engine.spawn(
            self._loop(client, feed, flag), name="driver"
        )
        return flag

    def launch_all(self, clients: Sequence, feeds: Sequence[Feed]) -> List[dict]:
        return [self.launch(c, f) for c, f in zip(clients, feeds)]

    @staticmethod
    def stop(flag: dict) -> None:
        flag["stop"] = True

    def stop_all(self) -> None:
        for flag in self._flags:
            flag["stop"] = True
        self._flags.clear()
        self._clients.clear()

    # -- the driver loop ------------------------------------------------------

    def _loop(self, client, feed: Feed, flag: dict):
        engine = self.engine
        value = self.value
        while not flag["stop"]:
            op, key_id = feed.next()
            key = pack_key(key_id)
            start = engine.now
            try:
                if op == READ:
                    result = yield from client.get(key)
                    if result is None:
                        if self.miss_penalty_us:
                            # Fetch from the backing store, then fill the cache.
                            yield self.miss_penalty_us
                        yield from client.set(key, value)
                    if self._measuring:
                        self._get_lat.record(engine.now - start)
                else:
                    yield from client.set(key, value)
                    if self._measuring:
                        self._set_lat.record(engine.now - start)
            except CacheOperationError:
                if not self.tolerate_failures:
                    raise
                self.failed_ops += 1
                continue
            if self._measuring:
                self._ops += 1
                self.series.record(engine.now)

    # -- fault injection ---------------------------------------------------

    def schedule_crashes(self, cluster, crashes, offset_us: float = 0.0) -> None:
        """Arm :class:`~repro.sim.faults.ClientCrash` events.

        Each crash kills the victim's driver process at the given simulated
        instant — mid-operation, at whatever yield boundary it happens to be
        parked on — and then notifies the cluster so recovery can run.
        ``offset_us`` shifts the (plan-relative) crash times, typically by
        ``engine.now`` after warmup.
        """
        for crash in crashes:
            self.engine.spawn(
                self._crash_watcher(cluster, crash, offset_us),
                name=f"crash_watcher_{crash.client_index}",
            )

    def _crash_watcher(self, cluster, crash, offset_us: float):
        at = offset_us + crash.at_us
        delay = at - self.engine.now
        if delay > 0:
            yield delay
        victim = cluster.clients[crash.client_index]
        for flag in self._flags:
            if flag.get("client") is victim:
                flag["stop"] = True
                process = flag.get("process")
                if process is not None:
                    process.kill()
        cluster.crash_client(crash.client_index)

    # -- measurement windows -----------------------------------------------------

    def _hit_totals(self) -> Tuple[int, int]:
        hits = sum(getattr(c, "hits", 0) for c in self._clients)
        misses = sum(getattr(c, "misses", 0) for c in self._clients)
        return hits, misses

    def _annotate_window(self, name: str, start: float) -> None:
        """Mark a completed run window as a lane-0 span on the trace."""
        tracer = self.obs.tracer_for(self.engine)
        if tracer is not None:
            tracer.complete_at(
                name, "harness", start, self.engine.now - start, tid=0
            )

    def warm(self, duration_us: float) -> None:
        """Run without recording (cache warmup)."""
        start = self.engine.now
        if self.obs is not None:
            self.obs.schedule_window_samples(
                self.engine, start, start + duration_us
            )
        self.engine.run(until=start + duration_us)
        if self.obs is not None:
            self._annotate_window("warm", start)

    def measure(self, duration_us: float) -> MeasureResult:
        """Record one window and return its metrics."""
        self._ops = 0
        self._get_lat = LatencyStats()
        self._set_lat = LatencyStats()
        self._hits0, self._miss0 = self._hit_totals()
        self._measuring = True
        start = self.engine.now
        if self.obs is not None:
            self.obs.schedule_window_samples(
                self.engine, start, start + duration_us
            )
        self.engine.run(until=start + duration_us)
        self._measuring = False
        if self.obs is not None:
            self._annotate_window("measure", start)
        hits, misses = self._hit_totals()
        return MeasureResult(
            ops=self._ops,
            duration_us=self.engine.now - start,
            get_latency=self._get_lat,
            set_latency=self._set_lat,
            hits=hits - self._hits0,
            misses=misses - self._miss0,
        )


def preload(engine: Engine, clients: Sequence, keys: Sequence[int], value_size: int = 232) -> None:
    """Load ``keys`` into the cache, sharded across clients (untimed setup)."""
    value = make_value(value_size)
    shards = np.array_split(np.asarray(list(keys), dtype=np.int64), len(clients))

    def loader(client, shard):
        for key_id in shard:
            yield from client.set(pack_key(int(key_id)), value)

    processes = [
        engine.spawn(loader(c, s), name="preload")
        for c, s in zip(clients, shards)
        if len(s)
    ]
    engine.run()
    unfinished = [p for p in processes if not p.finished]
    if unfinished:
        raise RuntimeError("preload did not complete")
