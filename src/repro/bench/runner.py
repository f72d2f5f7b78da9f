"""Timed-workload harness shared by every throughput/latency experiment.

All systems expose the same client surface (``get``/``set`` generators), so a
single closed-loop driver measures them all:

- :class:`Feed` — a cyclic per-client request source (YCSB stream, a trace
  shard, or :func:`zipf_feed`; the paper has clients iteratively replay
  their shard).
- :func:`closed_loop` — one client's driver.  It yields only delays and its
  client's op commands, so it runs on both substrates.
- :class:`Harness` — the one measuring harness of both substrates: it
  spawns one driver per client (an engine process, or a task on a live
  cluster's runtime: ``runtime.loadgen``), applies the configurable miss
  penalty (500 µs in the paper: the cost of fetching a missed object from
  distributed storage before Set-ing it back), and measures throughput and
  latency over explicit windows so warmup is excluded (on a live cluster,
  one window of a set number of ops); :meth:`Harness.phase` samples an
  elasticity timeline phase by phase, one row per window, and
  :func:`phase_mean` averages a phase.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.client import CacheOperationError
from ..obs.observer import current as obs_current
from ..sim import Engine, LatencyStats
from ..sim.stats import hit_rate
from ..workloads import ZipfianGenerator
from ..workloads.ycsb import OP_NAMES, READ, UPDATE

_KEY = struct.Struct("<Q")

_OP_CODES = {name: code for code, name in enumerate(OP_NAMES)}


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
        pos = self._pos
        self._pos = pos + 1 if pos + 1 < len(self._ops) else 0
        return self._ops.item(pos), self._keys.item(pos)


def zipf_feed(
    ops: int, n_keys: int, theta: float, read_ratio: float, seed: int
) -> Feed:
    """One client's Zipfian Get/Set stream, the same on both substrates:
    keys from ``ZipfianGenerator(n_keys, theta, seed)``, and the i-th op a
    Get when the i-th ``random.Random(seed).random()`` is below
    ``read_ratio``, else a Set.  A longer stream extends a shorter one."""
    keys = ZipfianGenerator(n_keys, theta=theta, seed=seed).sample(ops)
    draw = random.Random(seed).random
    reads = np.array([draw() for _ in range(ops)]) < read_ratio
    return Feed(np.where(reads, READ, UPDATE), keys)


def closed_loop(
    client,
    feed: Feed,
    value: bytes,
    now,
    running,
    finished,
    failed=None,
    miss_penalty_us: float = 0.0,
    pack=pack_key,
):
    """One client's closed loop over ``feed``, on either substrate: it
    yields only delays (the miss penalty) and its client's op commands.

    The caller passes in what differs: ``now()`` stamps an op's start,
    ``running()`` says whether to take the next op, ``finished(op,
    start)`` records an op that completed and ``failed(op, start)`` one
    that failed for good with :class:`CacheOperationError` (without
    ``failed`` it propagates), and ``pack(key_id)`` makes the wire key.
    A Get that misses is fetched from the backing store and Set back.
    Only :class:`CacheOperationError` counts as a failed op: the client
    turns every fabric fault into a retry, a miss or that error, so a
    raw fault reaching this loop is a bug and unwinds it.
    """
    while running():
        op, key_id = feed.next()
        key = pack(key_id)
        start = now()
        try:
            if op == READ:
                result = yield from client.get(key)
                if result is None:
                    if miss_penalty_us:
                        yield miss_penalty_us
                    yield from client.set(key, value)
            else:
                yield from client.set(key, value)
        except CacheOperationError:
            if failed is None:
                raise
            failed(op, start)
        else:
            finished(op, start)


@dataclass
class MeasureResult:
    """Metrics from one measurement window."""

    ops: int
    duration_us: float
    get_latency: LatencyStats
    set_latency: LatencyStats
    hits: int = 0
    misses: int = 0

    @property
    def throughput_mops(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return self.ops / self.duration_us

    @property
    def hit_rate(self) -> float:
        return hit_rate(self.hits, self.misses)


class Harness:
    """Closed-loop driver for any set of clients on one engine."""

    def __init__(
        self,
        engine: Engine,
        value_size: int = 232,
        miss_penalty_us: float = 0.0,
        tolerate_failures: bool = False,
        pack=pack_key,
    ):
        """``tolerate_failures`` keeps a driver alive when an operation
        fails permanently (:class:`CacheOperationError`) — required for
        chaos runs, where a retry-exhausted Set is a data point, not a
        reason to unwind the engine.  ``pack`` as in :func:`closed_loop`."""
        self.engine = engine
        self.value = make_value(value_size)
        self.miss_penalty_us = miss_penalty_us
        self.tolerate_failures = tolerate_failures
        self.pack = pack
        # Observability (repro.obs): the process's hub, picked up so no
        # experiment passes one in; None stays fully inert.
        self.obs = obs_current()
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

    def launch(self, client, feed: Feed, ops: Optional[int] = None) -> dict:
        """Start a closed-loop driver for ``client``; returns a stop handle.

        The driver runs until stopped, or with ``ops`` for that many ops.
        The handle records the driver process and the client so fault
        injection can kill a specific client's loop mid-operation.
        """
        flag = {"stop": False, "client": client}
        finished = self._finished
        failed = self._failed if self.tolerate_failures else None
        if self.obs is not None and getattr(client, "tracer", False) is None:
            # A real client traces none of its ops: they nest on a wall lane.
            lane = self.obs.lane(f"client-{len(self._clients)}")
            finished = self._spanned(lane, finished)
            failed = failed and self._spanned(lane, failed, {"failed": True})
        self._flags.append(flag)
        self._clients.append(client)
        engine = self.engine
        flag["process"] = engine.spawn(closed_loop(
            client, feed, self.value,
            now=lambda: engine._now,
            running=(lambda: not flag["stop"]) if ops is None
            else partial(next, repeat(True, ops), False),
            finished=finished, failed=failed,
            miss_penalty_us=self.miss_penalty_us,
            pack=self.pack,
        ), name="driver")
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

    # -- what the driver loops record ---------------------------------------

    def _finished(self, op: int, start: float) -> None:
        if self._measuring:
            now = self.engine._now
            (self._get_lat if op == READ else self._set_lat).record(now - start)
            self._ops += 1

    def _failed(self, op: int, start: float) -> None:
        self.failed_ops += 1

    def _spanned(self, lane: int, record, args=None):
        """``record``, also putting each op on wall lane ``lane`` as a span."""
        obs, engine = self.obs, self.engine

        def spanned(op: int, start: float) -> None:
            elapsed = engine.now - start
            obs.tracer.complete_at(
                "op.get" if op == READ else "op.set", "op",
                obs.now_us() - elapsed, elapsed, tid=lane, args=args,
            )
            record(op, start)
        return spanned

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

    def _open_window(self) -> float:
        self._ops = 0
        self._get_lat = LatencyStats()
        self._set_lat = LatencyStats()
        self._hits0, self._miss0 = self._hit_totals()
        self._measuring = True
        return self.engine.now

    def _close_window(self, start: float) -> MeasureResult:
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

    def measure(self, duration_us: float) -> MeasureResult:
        """Record one window and return its metrics."""
        start = self._open_window()
        if self.obs is not None:
            self.obs.schedule_window_samples(
                self.engine, start, start + duration_us
            )
        self.engine.run(until=start + duration_us)
        return self._close_window(start)

    async def measure_launched(self) -> MeasureResult:
        """Record one window until every driver, a task on a live
        cluster's runtime, has run the ops :meth:`launch` gave it."""
        start = self._open_window()
        for flag in self._flags:
            await flag["process"]
        return self._close_window(start)

    def phase(
        self,
        label: str,
        duration_us: float,
        window_us: float,
        done: Optional[Callable[[], bool]] = None,
    ) -> Iterator[Dict]:
        """Sample one timeline phase: :meth:`measure` window after window
        for ``duration_us``, and on while ``done`` (if given) says false,
        yielding one row per window before the next one runs.

        A window lasts ``window_us``, cut short to end the phase on time;
        once the phase is over, only ``done`` keeps it going, in whole
        windows.  A row holds ``t_start_us`` (window start), ``t_s``
        (window end), ``phase`` (``label``), ``mops``, ``hit_rate``,
        ``p50_us`` and ``p99_us`` (Get latency)."""
        engine = self.engine
        end = engine.now + duration_us
        while engine.now < end - 1.0 or (done is not None and not done()):
            left = end - engine.now
            start = engine.now
            result = self.measure(window_us if left < 1.0 else min(window_us, left))
            yield {
                "t_start_us": start,
                "t_s": engine.now / 1e6,
                "phase": label,
                "mops": result.throughput_mops,
                "hit_rate": result.hit_rate,
                "p50_us": result.get_latency.median(),
                "p99_us": result.get_latency.p99(),
            }


def phase_mean(rows: Iterable[Dict], phase: str, field: str = "mops") -> float:
    """Mean of ``field`` over the timeline rows of ``phase`` (0 if none)."""
    values = [row[field] for row in rows if row["phase"] == phase]
    return sum(values) / len(values) if values else 0.0


def load(client, key_ids: Iterable[int], value: bytes, pack=pack_key):
    """Set every key of ``key_ids``: one client's share of a preload, on
    either substrate; ``pack`` as in :func:`closed_loop`."""
    for key_id in key_ids:
        yield from client.set(pack(int(key_id)), value)


def preload(engine: Engine, clients: Sequence, keys: Sequence[int], value_size: int = 232) -> None:
    """Load ``keys`` into the cache, sharded across clients (untimed setup)."""
    value = make_value(value_size)
    shards = np.array_split(np.asarray(list(keys), dtype=np.int64), len(clients))
    processes = [
        engine.spawn(load(c, s, value), name="preload")
        for c, s in zip(clients, shards)
        if len(s)
    ]
    engine.run()
    unfinished = [p for p in processes if not p.finished]
    if unfinished:
        raise RuntimeError("preload did not complete")
