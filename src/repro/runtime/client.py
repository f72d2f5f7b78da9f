"""Client side of the real substrate: endpoint, connections, and driver.

The portable layers (:class:`~repro.core.client.DittoClient`, allocators,
recovery) are written as generators that ``yield`` commands to their
substrate.  On the sim substrate every command is a
:class:`~repro.sim.Timeout` executed by the discrete-event engine; here
the commands are either Timeouts (client backoff — mapped onto
``asyncio.sleep``) or *coroutine objects* produced by
:class:`RealEndpoint` verbs, awaited by :func:`drive` against live
memory-node processes.  Failures are thrown back *into* the generator at
the yield point as the very same exception types the sim raises
(:class:`~repro.rdma.verbs.VerbTimeout`,
:class:`~repro.rdma.verbs.NodeUnavailable`, ...), so the client's retry
machinery cannot tell the substrates apart.

The socket path is kept thin, and there is one of it per memory node
per process.  Ditto's clients are threads of one compute node that share
a NIC; here they are endpoints that share a :class:`WallClockRuntime`,
and the runtime owns one :class:`Connection` — the *link* — to each
memory node.  Every endpoint's requests and posts are multiplexed over
it by ``req_id`` (the work-request id).  A request does not write: it
appends its frame to the link's cork buffer, and one flush per loop turn
(the doorbell) ships what every client that woke in that turn has
queued — a Get's posted WRITE rides with the next READ, the READs of all
woken clients ride together — with a single ``transport.write``.  The
memory node serves whatever one ``recv`` holds and answers it with one
``send``, so a batch out comes back as a batch in.

A :class:`Connection` is an ``asyncio.Protocol``: ``data_received``
resolves futures straight from the bytes the transport delivers — there
is no stream reader, no reader task and no flow-control wait per
request.  Timeouts are one timer per link that watches the nearest of
its requests' own deadlines.  Concurrent first verbs share one
in-progress connect.  ``post_write``/``post_faa`` put their frame on the
link and count a drop in the future's done-callback, so a posted verb
costs a future, not a task.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import time
from multiprocessing import shared_memory
from typing import Callable, Dict, FrozenSet, Generator, List, Optional

from ..core.retry import backoff_s
from ..memory.controller import OutOfMemoryError
from ..memory.node import MemoryAccessError
from ..obs import runtime as obs_runtime
from ..rdma.transport import VerbTransport
from ..rdma.verbs import (
    NodeUnavailable,
    RdmaFaultError,
    StaleEpoch,
    VerbTimeout,
)
from ..sim import CounterSet, Timeout
from . import wire
from .journal import unregister_shm

#: Default per-verb wall-clock timeout.  Generous: loopback sockets
#: complete in microseconds; this only bounds a wedged server.
DEFAULT_TIMEOUT_S = 10.0

#: Transparent resend attempts inside one verb when the connection dies
#: mid-flight, before the failure surfaces as ``NodeUnavailable`` to the
#: portable retry layer (which applies its own, coarser backoff).
RESEND_ATTEMPTS = 4
RESEND_BACKOFF_S = 0.005
RESEND_BACKOFF_MAX_S = 0.04

#: A link's cork buffer is flushed inline once it holds this much — what
#: the memory node takes with one ``recv`` (``server.RECV_BYTES``).
CORK_BYTES = 64 * 1024


class RequestNotSent(ConnectionError):
    """The connection died before the request hit the socket — it found
    the link dead, or was still in the cork buffer when the link died.

    The server cannot have executed the verb, so a resend is safe for
    *every* opcode — unlike the ambiguous "response lost" case
    (``ConnectionResetError`` after the request was written), where only
    idempotent verbs, token-deduplicated RPCs, and fate-resolved CAS may
    be retried transparently.
    """


class WallClockRuntime:
    """The real substrate's 'engine': wall-clock time, background posts
    and the process's links to the memory nodes.

    Presents the engine facets portable code actually touches — ``now`` /
    ``_now`` in microseconds — so :class:`~repro.core.client.DittoClient`
    timestamps work unchanged, and keeps the futures of fire-and-forget
    posts so a caller can wait for them.  Time is wall-clock microseconds
    since runtime construction (the sim measures microseconds since
    engine start).

    The runtime is the compute node's NIC: it owns one
    :class:`Connection` per memory node, and every
    :class:`RealEndpoint` built on this runtime sends through it.
    """

    def __init__(self):
        self._t0 = time.perf_counter()
        self._background = set()
        #: (host, port) -> the one link this process has to that node.
        self.links: Dict[tuple, "Connection"] = {}
        #: (host, port) -> future of the connect in progress.
        self._opening: Dict[tuple, asyncio.Future] = {}

    @property
    def now(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    # The hot paths read engine._now directly; same clock here.
    _now = now

    def track(self, future: asyncio.Future) -> None:
        """Hold a posted verb's future until it completes."""
        self._background.add(future)
        future.add_done_callback(self._background.discard)

    async def drain_background(self, timeout_s: float = 10.0) -> int:
        """Await outstanding background posts; returns how many were
        still pending when called."""
        pending = [f for f in self._background if not f.done()]
        if pending:
            await asyncio.wait(pending, timeout=timeout_s)
        return len(pending)

    def live_link(self, node: "NodeHandle") -> Optional["Connection"]:
        """The link to ``node`` if it is up; never connects."""
        conn = self.links.get((node.host, node.port))
        return conn if conn is not None and conn.alive else None

    async def connect(self, node: "NodeHandle") -> "Connection":
        """Open the link to ``node``, or join the open in progress.

        Single flight: verbs that arrive while a connect is under way —
        every client's first verb, a Get-only client's first posts — wait
        for that one instead of each opening (and all but the last
        orphaning) its own.  Raises the ``OSError`` of a failed connect to
        the opener and to every waiter.
        """
        key = (node.host, node.port)
        opening = self._opening.get(key)
        if opening is not None:
            # Shielded: cancelling one waiter must not cancel the rest.
            return await asyncio.shield(opening)
        loop = asyncio.get_running_loop()
        opening = self._opening[key] = loop.create_future()
        try:
            _transport, conn = await loop.create_connection(
                lambda: Connection(loop), node.host, node.port
            )
        except OSError as exc:
            opening.set_exception(exc)
            raise
        else:
            old = self.links.get(key)
            if old is not None:  # a reset link's tallies carry on
                conn.frames, conn.flushes = old.frames, old.flushes
            self.links[key] = conn
            opening.set_result(conn)
            return conn
        finally:
            del self._opening[key]
            if not opening.done():
                # Cancelled mid-connect: waiters must not inherit that.
                opening.set_exception(
                    ConnectionAbortedError("connect was abandoned")
                )
            opening.exception()  # mark retrieved: there may be no waiter

    def link_stats(self) -> Dict[str, int]:
        """Frames queued and flushes made, summed over the links:
        frames per flush says how many verbs shared one ``send``."""
        links = self.links.values()
        return {
            "frames": sum(conn.frames for conn in links),
            "flushes": sum(conn.flushes for conn in links),
        }

    async def aclose(self) -> None:
        """Wait for outstanding posts, then close every link that is up
        (so each is closed once however many endpoints share it).  A
        verb issued afterwards reconnects."""
        await self.drain_background()
        for conn in list(self.links.values()):
            if conn.alive:
                await conn.close()


async def drive(gen: Generator, runtime: Optional[WallClockRuntime] = None):
    """Drive one verb-layer generator to completion on asyncio.

    The real-substrate counterpart of ``Engine.run_process``: Timeouts
    sleep on the wall clock, endpoint coroutines are awaited, and any
    failure is thrown into the generator at its yield point.
    """
    value = None
    error: Optional[BaseException] = None
    while True:
        try:
            if error is not None:
                exc, error = error, None
                command = gen.throw(exc)
            else:
                command = gen.send(value)
        except StopIteration as stop:
            return stop.value
        value = None
        if isinstance(command, Timeout):
            await asyncio.sleep(command.delay / 1e6)
        elif asyncio.iscoroutine(command):
            try:
                value = await command
            except Exception as exc:  # surfaced inside the generator
                error = exc
        else:
            raise RuntimeError(
                f"the real substrate cannot execute {command!r}; only "
                "Timeout and endpoint awaitables are portable (DESIGN §3.7)"
            )


class NodeHandle:
    """Client-side stand-in for a remote memory node.

    Quacks enough like :class:`~repro.memory.node.MemoryNode` for the
    portable layers — ``node_id``/``base``/``end``/``contains`` for
    address routing — plus the endpoint coordinates (host, port) and the
    heap's shared-memory name for the optional direct-read fast path.
    """

    __slots__ = ("node_id", "base", "size", "host", "port", "shm", "_seg")

    def __init__(self, node_id: int, base: int, size: int, host: str,
                 port: int, shm: str = ""):
        self.node_id = node_id
        self.base = base
        self.size = size
        self.host = host
        self.port = port
        self.shm = shm
        self._seg: Optional[shared_memory.SharedMemory] = None

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end

    # -- direct shared-memory reads (optional fast path) ------------------

    def attach(self) -> None:
        """Map the node's heap read-only into this process."""
        if self._seg is None and self.shm:
            self._seg = shared_memory.SharedMemory(name=self.shm)
            # Attaching registers the segment with *this* process's
            # resource tracker, whose exit sweep would unlink the live
            # server's heap.  Readers never own the segment.
            unregister_shm(self._seg)

    def read_direct(self, addr: int, length: int) -> bytes:
        off = addr - self.base
        return bytes(self._seg.buf[off : off + length])

    def detach(self) -> None:
        if self._seg is not None:
            self._seg.close()  # never unlink: the server owns the segment
            self._seg = None

    def as_dict(self) -> Dict:
        return {
            "node_id": self.node_id, "base": self.base, "size": self.size,
            "host": self.host, "port": self.port, "shm": self.shm,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "NodeHandle":
        return cls(data["node_id"], data["base"], data["size"],
                   data["host"], data["port"], data.get("shm", ""))


class Connection(asyncio.Protocol):
    """One multiplexed connection to a memory node: the process's link.

    Requests carry per-connection ids and :meth:`data_received` resolves
    their futures straight from the bytes the transport hands over, in
    arrival order — so every client's foreground op and fire-and-forget
    posts share the socket with requests in flight concurrently, and a
    request costs one future: no reader task, no per-request timer.  One
    timer per connection watches the nearest deadline; ``_pending`` holds
    each request's own deadline next to its future, so nothing outlives
    the request it belongs to.

    Frames leave corked: :meth:`request` appends to ``_cork`` and
    :meth:`_flush` — once per loop turn — writes the lot.  Ids grow in
    cork order, so ``_sent_id`` (the last id flushed) splits ``_pending``
    into frames that may have reached the peer and frames that cannot
    have.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._transport: Optional[asyncio.Transport] = None
        self._decoder = wire.FrameDecoder(wire.RESP.size)
        #: req_id -> (future, deadline on the loop's clock)
        self._pending: Dict[int, tuple] = {}
        self._timer: Optional[asyncio.TimerHandle] = None
        self._next_id = 0
        self._cork: List[bytes] = []
        self._cork_bytes = 0
        self._flush_queued = False
        self._sent_id = 0
        self._closed: asyncio.Future = loop.create_future()
        #: False once the connection broke or began closing: a request
        #: then raises :class:`RequestNotSent` without touching the socket.
        self.alive = False
        #: Always-on tallies, plain ints like the server's wakeups/sends.
        self.frames = 0
        self.flushes = 0

    # -- asyncio.Protocol ---------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        self.alive = True

    def data_received(self, data: bytes) -> None:
        try:
            frames = self._decoder.feed(data)
        except ValueError as exc:  # bad length prefix: stream is garbage
            self._fail(exc)
            self._transport.close()
            return
        pending = self._pending
        for frame in frames:
            req_id, status = wire.RESP.unpack_from(frame)
            entry = pending.pop(req_id, None)
            if entry is not None and not entry[0].done():
                entry[0].set_result((status, frame[wire.RESP.size :]))
        # Queued behind the wake-ups just scheduled: the clients these
        # responses resume issue their next verbs first, and all of them
        # leave in this one flush, in the same loop turn.
        if not self._flush_queued:
            self._flush_queued = True
            self._loop.call_soon(self._flush)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._fail(exc if exc is not None else
                   ConnectionResetError("connection closed"))
        self._closed.set_result(None)

    def _fail(self, exc: BaseException) -> None:
        self.alive = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, {}
        self._cork.clear()
        for req_id, (future, _deadline) in pending.items():
            if not future.done():
                future.set_exception(
                    ConnectionResetError(str(exc))
                    if req_id <= self._sent_id else
                    RequestNotSent(f"link died before the flush: {exc}")
                )

    # -- requests -----------------------------------------------------------

    def request(self, op: int, body: bytes,
                timeout_s: float) -> asyncio.Future:
        """Queue one request; the future resolves to ``(status, payload)``.

        The frame leaves with the link's next flush: this loop turn's if
        responses were delivered in it, the next turn's otherwise, now if
        the cork buffer is full.

        Raises :class:`RequestNotSent` when the connection was already
        dead, and fails the future with it when the link dies with the
        frame still corked (both safe to retry on a fresh connection, any
        opcode).  The future fails with asyncio.TimeoutError at this
        request's own deadline (the late response, if any, is dropped on
        arrival), and with plain ConnectionResetError when the peer died
        *after* the flush — the ambiguous "response lost" case where the
        server may or may not have executed the request.
        """
        if not self.alive:
            raise RequestNotSent("connection is closed")
        self._next_id += 1
        req_id = self._next_id
        future = self._loop.create_future()
        deadline = self._loop.time() + timeout_s
        self._pending[req_id] = (future, deadline)
        if self._timer is None or deadline < self._timer.when():
            self._watch(deadline)
        frame = wire.request_frame(op, req_id, body)
        self._cork.append(frame)
        self._cork_bytes += len(frame)
        self.frames += 1
        if self._cork_bytes >= CORK_BYTES:
            self._flush()  # a flush still queued will find the cork empty
        elif not self._flush_queued:
            self._flush_queued = True
            self._loop.call_soon(self._flush)
        return future

    def _flush(self) -> None:
        """Ring the doorbell: one ``write`` for everything corked."""
        self._flush_queued = False
        if not self._cork or not self.alive:
            return  # a dead link's corked frames fail in _fail()
        data = b"".join(self._cork)
        self._cork.clear()
        self._cork_bytes = 0
        self.flushes += 1
        # From here on bytes may have reached the peer: every later
        # failure of these requests is "response lost", never "not sent".
        self._sent_id = self._next_id
        self._transport.write(data)

    def _watch(self, deadline: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(deadline, self._on_deadline)

    def _on_deadline(self) -> None:
        """Expire every request whose own deadline has passed, then watch
        the nearest one left.  In steady state this runs once per
        ``timeout_s`` per connection and finds nothing to do."""
        self._timer = None
        now = self._loop.time()
        nearest = None
        for req_id, (future, deadline) in list(self._pending.items()):
            if deadline <= now:
                del self._pending[req_id]
                if not future.done():
                    future.set_exception(asyncio.TimeoutError())
            elif nearest is None or deadline < nearest:
                nearest = deadline
        if nearest is not None:
            self._watch(nearest)

    async def close(self) -> None:
        self.alive = False
        self._transport.close()
        await self._closed


class NodeHealth:
    """Cluster-shared circuit breaker over memory-node liveness.

    The wall-clock analogue of the sim's instantaneous outage knowledge:
    once any endpoint observes a node refusing/resetting connections —
    or the harness reaps a dead child — every client sharing this view
    fails fast with :class:`~repro.rdma.verbs.NodeUnavailable` instead
    of burning a full verb timeout per op.  While a node is marked down,
    one probe request per :attr:`probe_interval_s` is let through
    (half-open breaker); the first success marks the node up again.
    Listeners (the cluster) are notified on every transition so they can
    steer allocators away from, and back to, the node.
    """

    def __init__(self, probe_interval_s: float = 0.1,
                 counters: Optional[CounterSet] = None):
        self.probe_interval_s = probe_interval_s
        #: node_id -> monotonic time of the last allowed probe.
        self._down: Dict[int, float] = {}
        self._listeners: List[Callable[[], None]] = []
        #: Optional shared tally: each down transition counts one
        #: ``breaker_trip`` (surfaced in load reports and digests).
        self.counters = counters

    def add_listener(self, callback: Callable[[], None]) -> None:
        self._listeners.append(callback)

    def _notify(self) -> None:
        for callback in self._listeners:
            callback()

    def down_ids(self) -> FrozenSet[int]:
        return frozenset(self._down)

    def is_down(self, node_id: int) -> bool:
        return node_id in self._down

    def report_down(self, node_id: int) -> None:
        if node_id not in self._down:
            # First probe is due immediately: a refused connect is cheap
            # and recovery should be noticed fast.
            self._down[node_id] = -1e9
            if self.counters is not None:
                self.counters.add("breaker_trip")
            self._notify()

    def mark_up(self, node_id: int) -> None:
        if self._down.pop(node_id, None) is not None:
            self._notify()

    def allow_probe(self, node_id: int) -> bool:
        """True if the caller may issue a request to ``node_id`` now."""
        last = self._down.get(node_id)
        if last is None:
            return True
        now = time.monotonic()
        if now - last >= self.probe_interval_s:
            self._down[node_id] = now
            return True
        return False


class RealEndpoint(VerbTransport):
    """Verb transport over sockets + shared memory (one per client).

    The sockets are the runtime's: every endpoint built on one
    :class:`WallClockRuntime` sends over that runtime's one link per
    memory node.  An endpoint with a runtime of its own has a private
    link.

    Mirrors :class:`~repro.rdma.verbs.RdmaEndpoint` behind the
    :class:`~repro.rdma.transport.VerbTransport` contract: verbs are
    generators, fence checks happen client-side before the request is
    issued, and failures surface as the sim's exception types.  With
    ``shm_reads`` enabled, READs that hit an attached node bypass the
    socket and copy straight out of the shared-memory heap ("direct
    shared-memory access where safe": reads tolerate the benign torn-read
    race because object decoding and fingerprints already reject garbage;
    atomics always go through the node's serialization point).
    """

    __slots__ = (
        "engine", "nodes", "counters", "tracer", "fence", "consensus",
        "timeout_s", "shm_reads", "health", "_single_node", "_rng",
        "_rpc_salt", "_rpc_seq", "_obs_proc", "_obs_hist",
    )

    def __init__(
        self,
        engine: WallClockRuntime,
        nodes: List[NodeHandle],
        counters: Optional[CounterSet] = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        shm_reads: bool = False,
        health: Optional[NodeHealth] = None,
    ):
        self.engine = engine
        self.nodes = list(nodes)
        self.counters = counters if counters is not None else CounterSet()
        self.tracer = None
        self.fence = None
        self.consensus = None
        self.timeout_s = timeout_s
        self.shm_reads = shm_reads
        self.health = health
        self._single_node = nodes[0] if len(nodes) == 1 else None
        self._rng = random.Random()
        # RPC dedup tokens: unique per endpoint lifetime (random salt)
        # and per call (sequence) — never reused, never colliding with
        # another client's across a shared server memo.
        self._rpc_salt = random.getrandbits(31) << 32
        self._rpc_seq = 0
        # Bound once at construction: None when observability is disarmed,
        # so the roundtrip hot path pays exactly one identity test and
        # never touches a registry (the zero-cost conformance contract).
        self._obs_proc = obs_runtime.current()
        self._obs_hist: Dict[str, object] = {}
        if shm_reads:
            for node in self.nodes:
                node.attach()

    def _next_token(self) -> int:
        self._rpc_seq += 1
        return self._rpc_salt | self._rpc_seq

    def _node_for(self, addr: int, length: int) -> NodeHandle:
        node = self._single_node
        if node is not None and node.contains(addr, length):
            return node
        for node in self.nodes:
            if node.contains(addr, length):
                return node
        raise MemoryAccessError(f"address {addr} not in any memory node")

    # -- the socket round trip --------------------------------------------

    async def _open_link(self, node: NodeHandle) -> Connection:
        """Have the runtime connect to ``node``; a failure marks the node
        down in the health view and surfaces as the sim's outage."""
        try:
            return await self.engine.connect(node)
        except OSError as exc:
            if self.health is not None:
                self.health.report_down(node.node_id)
            self.counters.add("fault_node_unavailable")
            raise NodeUnavailable(
                f"node {node.node_id} is unreachable ({exc})",
                node_id=node.node_id,
            ) from exc

    def _decode(self, node: NodeHandle, verb: str, status: int,
                payload: bytes) -> bytes:
        if status == wire.ST_OK:
            return payload
        if status == wire.ST_ACCESS:
            raise MemoryAccessError(pickle.loads(payload))
        if status == wire.ST_OOM:
            raise OutOfMemoryError(pickle.loads(payload))
        if status == wire.ST_STALE:
            message, node_id, epoch = pickle.loads(payload)
            raise StaleEpoch(message, verb=verb, node_id=node_id, epoch=epoch)
        name, message = pickle.loads(payload)
        raise RuntimeError(f"node {node.node_id} {verb} failed: "
                           f"{name}: {message}")

    async def _roundtrip(self, node: NodeHandle, verb: str, op: int,
                         body: bytes) -> bytes:
        """One verb against one node, riding through connection churn.

        A verb that *times out* surfaces as :class:`VerbTimeout`
        immediately — on this substrate a timeout means the request was
        swallowed (chaos drop) or the server is wedged, and the sim's
        drop semantics (client blocks its full timeout, then the
        portable layer decides) must hold.  A connection that *dies*
        mid-verb is retried transparently on a fresh connection within a
        small budget: unconditionally when the request never left this
        process (:class:`RequestNotSent`), and for ambiguous "response
        lost" failures only when a duplicate execution is provably
        harmless — READ/WRITE/PING are idempotent here
        (:data:`~repro.runtime.wire.RESEND_SAFE_OPS`), RPCs replay
        deduplicated under their token, FAA's only target is the history
        clock (a rare double increment shifts a heuristic, not
        correctness), and CAS resolves its fate by re-reading the target
        word.  Persistent churn marks the node down in the shared health
        view and surfaces as :class:`NodeUnavailable`, exactly like a
        sim outage window.
        """
        obs = self._obs_proc
        start_pc = time.perf_counter() if obs is not None else 0.0
        health = self.health
        probing = False
        if health is not None and health.is_down(node.node_id):
            if not health.allow_probe(node.node_id):
                self.counters.add("fault_node_unavailable")
                raise NodeUnavailable(
                    f"node {node.node_id} is marked down ({verb})",
                    verb=verb, node_id=node.node_id,
                )
            probing = True
        last_exc: Optional[BaseException] = None
        for attempt in range(1, RESEND_ATTEMPTS + 1):
            conn = self.engine.live_link(node)
            if conn is None:
                conn = await self._open_link(node)
            try:
                status, payload = await conn.request(
                    op, body, self.timeout_s
                )
            except asyncio.TimeoutError:
                self.counters.add("fault_verb_timeout")
                raise VerbTimeout(
                    f"{verb} to node {node.node_id} timed out after "
                    f"{self.timeout_s}s",
                    verb=verb, node_id=node.node_id,
                ) from None
            except RequestNotSent as exc:
                last_exc = exc
            except (ConnectionError, OSError) as exc:
                if op == wire.OP_CAS:
                    return await self._resolve_cas(node, verb, body)
                last_exc = exc
                if op not in wire.RESEND_SAFE_OPS and op not in (
                    wire.OP_RPC, wire.OP_FAA
                ):
                    break  # no safe replay for this opcode (OP_SHUTDOWN)
            else:
                if probing:
                    health.mark_up(node.node_id)
                if obs is not None:
                    self._obs_record(
                        verb, (time.perf_counter() - start_pc) * 1e6
                    )
                return self._decode(node, verb, status, payload)
            if attempt < RESEND_ATTEMPTS:
                self.counters.add("conn_resend")
                await asyncio.sleep(backoff_s(
                    attempt, base_s=RESEND_BACKOFF_S,
                    ceiling_s=RESEND_BACKOFF_MAX_S,
                    jitter=0.25, rng=self._rng,
                ))
        if health is not None:
            health.report_down(node.node_id)
        self.counters.add("fault_node_unavailable")
        raise NodeUnavailable(
            f"node {node.node_id} is unreachable ({verb}: {last_exc})",
            verb=verb, node_id=node.node_id,
        ) from last_exc

    def _obs_record(self, verb: str, roundtrip_us: float) -> None:
        """Record one successful roundtrip (armed processes only).

        Histograms are bound lazily per verb string and cached, so the
        steady state is one dict hit + one record; labels use the verb
        base (``rpc:alloc_segment`` → ``rpc``) to keep cardinality flat.
        """
        hist = self._obs_hist.get(verb)
        if hist is None:
            hist = self._obs_proc.registry.histogram(
                "verb.roundtrip_us", verb=verb.split(":", 1)[0]
            )
            self._obs_hist[verb] = hist
        hist.record(roundtrip_us)

    async def _resolve_cas(self, node: NodeHandle, verb: str,
                           body: bytes) -> bytes:
        """Disambiguate a CAS whose response was lost by reading the word.

        If the word now holds ``new``, the CAS (or an equivalent one)
        applied — report success by returning ``expected`` (a CAS's
        result is the pre-swap value).  If it still holds ``expected``,
        the CAS provably has not applied yet, so resending is safe.  Any
        other value means a competitor won — return it as the ordinary
        failure result.  The known blind spot is ABA (the word left
        ``expected`` and came back) — impossible for this codebase's CAS
        targets, which are monotonic version words and pointer installs
        of never-reused fresh blocks.
        """
        self.counters.add("cas_fate_resolved")
        addr, expected, new = wire.CAS_BODY.unpack(body)
        raw = await self._roundtrip(
            node, f"{verb}:fate", wire.OP_READ, wire.READ_BODY.pack(addr, 8)
        )
        (observed,) = wire.U64.unpack(raw)
        if observed == expected and expected != new:
            return await self._roundtrip(node, verb, wire.OP_CAS, body)
        if observed == new:
            return wire.U64.pack(expected)
        return wire.U64.pack(observed)

    # -- verbs (generators, same surface as RdmaEndpoint) -----------------

    def read(self, addr: int, length: int) -> Generator:
        if self.fence is not None:
            self.fence.check_read(addr, "read", -1)
        node = self._node_for(addr, length)
        self.counters.add("rdma_read")
        if self.shm_reads and node._seg is not None:
            self.counters.add("shm_direct_read")
            return node.read_direct(addr, length)
        payload = yield self._roundtrip(
            node, "read", wire.OP_READ, wire.READ_BODY.pack(addr, length)
        )
        return payload

    def _write_request(self, addr: int, data: bytes):
        if self.fence is not None:
            self.fence.check_write(addr, "write", -1)
        node = self._node_for(addr, len(data))
        self.counters.add("rdma_write")
        return node, wire.WRITE_HDR.pack(addr) + bytes(data)

    def _faa_request(self, addr: int, delta: int):
        if self.fence is not None:
            self.fence.check_write(addr, "faa", -1)
        node = self._node_for(addr, 8)
        self.counters.add("rdma_faa")
        return node, wire.FAA_BODY.pack(addr, delta)

    def write(self, addr: int, data: bytes) -> Generator:
        node, body = self._write_request(addr, data)
        yield self._roundtrip(node, "write", wire.OP_WRITE, body)

    def cas(self, addr: int, expected: int, new: int) -> Generator:
        if self.fence is not None:
            self.fence.check_write(addr, "cas", -1)
        node = self._node_for(addr, 8)
        self.counters.add("rdma_cas")
        payload = yield self._roundtrip(
            node, "cas", wire.OP_CAS,
            wire.CAS_BODY.pack(
                addr, expected & 0xFFFFFFFFFFFFFFFF, new & 0xFFFFFFFFFFFFFFFF
            ),
        )
        return wire.U64.unpack(payload)[0]

    def faa(self, addr: int, delta: int) -> Generator:
        node, body = self._faa_request(addr, delta)
        payload = yield self._roundtrip(node, "faa", wire.OP_FAA, body)
        return wire.U64.unpack(payload)[0]

    def rpc(self, node: NodeHandle, op: str, payload=None,
            size: int = 64) -> Generator:
        """Controller RPC; ``size`` (a sim cost-model hint) is ignored."""
        if self.fence is not None:
            self.fence.check_rpc(node.node_id, "rpc")
        self.counters.add("rdma_rpc")
        # Dedup token (0 for chaos/debug control RPCs, which are
        # idempotent by construction): a resent frame carries the same
        # token, so the server replays the memoized first result instead
        # of executing twice.
        token = 0 if op.startswith("__") else self._next_token()
        raw = yield self._roundtrip(
            node, f"rpc:{op}", wire.OP_RPC, wire.pack_rpc(op, payload, token)
        )
        return pickle.loads(raw)

    # -- asynchronous (unsignalled) posts ---------------------------------

    def post_write(self, addr: int, data: bytes):
        return self._post(
            "write", wire.OP_WRITE, self._write_request, addr, data
        )

    def post_faa(self, addr: int, delta: int):
        return self._post("faa", wire.OP_FAA, self._faa_request, addr, delta)

    def _post(self, verb: str, op: int, request,
              *args) -> Optional[asyncio.Future]:
        """Fire-and-forget: the frame joins the node's link now — ahead of
        this client's next verb, and in the same flush — and the post
        costs one future; a vanished post costs nothing but the update it
        carried, so it is counted, never resent.  Only a post that finds
        no live link takes the verb path (connect, health view, resends)
        in a task of its own, unordered against the verbs that follow."""
        try:
            node, body = request(*args)
        except StaleEpoch:
            self.counters.add("fenced_post_dropped")
            return None
        conn = self.engine.live_link(node)
        if conn is not None:
            future = conn.request(op, body, self.timeout_s)
        else:
            future = asyncio.ensure_future(
                self._post_unconnected(node, verb, op, body)
            )
        future.add_done_callback(self._post_done)
        self.engine.track(future)
        return future

    async def _post_unconnected(self, node: NodeHandle, verb: str, op: int,
                                body: bytes):
        return wire.ST_OK, await self._roundtrip(node, verb, op, body)

    def _post_done(self, future: asyncio.Future) -> None:
        if future.cancelled():
            return
        try:
            status, _payload = future.result()
        except (RdmaFaultError, OSError, asyncio.TimeoutError):
            self.counters.add("fault_post_dropped")
            return
        if status != wire.ST_OK:
            raise RuntimeError(
                f"a posted verb came back with status {status}"
            )

    # -- lifecycle ---------------------------------------------------------

    async def aclose(self) -> None:
        """Drain the runtime's posts and close its links — shared with
        every endpoint on that runtime, each closed once — then unmap
        this endpoint's heaps."""
        await self.engine.aclose()
        if self.shm_reads:
            for node in self.nodes:
                node.detach()
