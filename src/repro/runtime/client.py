"""Client side of the real substrate: endpoint, links, and runner.

The portable layers (:class:`~repro.core.client.DittoClient`, allocators,
recovery) are written as generators that ``yield`` commands to their
substrate.  On the sim substrate every command is a delay — a bare
number of microseconds — and the discrete-event engine resumes the
generator straight from the event that completes it; here the commands are
either delays (client backoff — a loop timer) or *verb requests*, plain
``(endpoint, node, verb, opcode, body)`` tuples yielded by
:class:`RealEndpoint` verbs, and :func:`drive` does what the engine does:
it puts the request's frame on the live link to the memory node and the
generator is resumed *from the link*, inline in ``data_received``, with
the payload.  An op costs one asyncio future and one task wake-up — when
it finishes — however many verbs it issues; a verb on a live, healthy link
creates no coroutine, task or future at all.  Failures are thrown back
*into* the generator at the yield point as the very same exception types
the sim raises (:class:`~repro.rdma.verbs.VerbTimeout`,
:class:`~repro.rdma.verbs.NodeUnavailable`, ...), so the client's retry
machinery cannot tell the substrates apart.

The socket path is kept thin, and there is one of it per memory node
per process.  Ditto's clients are threads of one compute node that share
a NIC; here they are endpoints that share a :class:`WallClockRuntime`,
and the runtime owns one :class:`Connection` — the *link* — to each
memory node.  Every endpoint's requests and posts are multiplexed over
it by ``req_id`` (the work-request id), and each is answered into a
*sink*: the op's runner, the endpoint's post counter, or a future.  A
request does not write: it appends its frame to the link's cork buffer,
and one flush (the doorbell) ships what every client has queued — a
Get's posted WRITE rides with the next READ, the READs of all resumed
clients ride together — with a single ``transport.write``.  The doorbell
follows the resumes: while a batch of responses is being dispatched the
flush is held; if the batch finished no op, every resumed client has
already corked its next verb and the link flushes inline, otherwise the
flush is queued behind the wake-ups of the ops that finished, whose next
verbs then leave with it.  The memory node serves whatever one ``recv``
holds and answers it with one ``send``, so a batch out comes back as a
batch in — and nearly always inside the flush's own ``send`` (99.8 % of
flushes on the benchmark's real workloads).  So, as Ditto's clients poll
for a verb's completion, the link polls its socket once a flush has gone
out whole and dispatches the answer there: such a round trip costs no
loop turn.  A link rings and polls again for the clients that answer
resumes only while no other link of the runtime has a request in
flight; otherwise it queues the next ring, one round trip per loop
callback, so one busy link cannot hold another's answers back.  (The
memory node's loop does not poll.)  A Set's WRITE and CAS go further and
share a *frame*: :meth:`RealEndpoint.write_then_cas` sends the pair as one
``OP_WRITE_CAS`` work-request chain when both addresses are on one node —
the link is a FIFO, so the node WRITEs, then swaps — and the runtime counts
the chains (``chained``).

A :class:`Connection` is an ``asyncio.Protocol``: there is no stream
reader, no reader task and no flow-control wait per request.  Timeouts
are one timer per link that watches the nearest of its requests' own
deadlines.  Everything that is not "frame on a live, healthy link →
answer" — the health view's probe gate, the single-flight connect,
resends and their backoff, a CAS's or a chain's fate,
``NodeUnavailable`` — is one coroutine, :meth:`RealEndpoint._recover`, run
as a task only for the verb that needs it.  ``post_write``/``post_faa`` put their frame on the link
and are a count on the runtime, not a future; a vanished post is counted,
never resent.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import socket
import time
from typing import Callable, Dict, FrozenSet, Generator, List, Optional

from ..core.retry import backoff_us
from ..memory.controller import OutOfMemoryError
from ..memory.node import MemoryAccessError, MemoryPool
from ..obs import observer
from ..rdma.transport import VerbTransport
from ..rdma.verbs import NodeUnavailable, StaleEpoch, VerbTimeout
from ..sim import CounterSet
from . import wire
from .journal import ShmSegment

#: Default per-verb wall-clock timeout.  Generous: a local socket round
#: trip takes microseconds; this only bounds a wedged server.
DEFAULT_TIMEOUT_S = 10.0

#: Transparent resend attempts inside one verb when the connection dies
#: mid-flight, before the failure surfaces as ``NodeUnavailable`` to the
#: portable retry layer (which applies its own, coarser backoff).
RESEND_ATTEMPTS = 4
RESEND_BACKOFF_US = 5_000.0
RESEND_BACKOFF_MAX_US = 40_000.0

#: A link's cork buffer is flushed inline once it holds this much — what
#: the memory node takes with one ``recv`` (``server.RECV_BYTES``).
CORK_BYTES = 64 * 1024

#: A link's request deadlines are on the event loop's clock, which for
#: asyncio's loops is ``time.monotonic``: read directly, one C call per
#: request.
_monotonic = time.monotonic
_NEVER = float("inf")


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
    timestamps work unchanged, and counts the fire-and-forget posts in
    flight so a caller can wait for them.  Time is wall-clock microseconds
    since runtime construction (the sim measures microseconds since
    engine start).

    The runtime is the compute node's NIC: it owns one
    :class:`Connection` per memory node, and every
    :class:`RealEndpoint` built on this runtime sends through it.
    """

    def __init__(self):
        self._t0 = time.perf_counter()
        #: Posts submitted, or waiting for a connect, and not yet settled.
        self.posts_in_flight = 0
        #: What :meth:`drain_background` callers wait on, while there is one.
        self._drained: Optional[asyncio.Future] = None
        #: Node address -> the one link this process has to that node.
        self.links: Dict[str, "Connection"] = {}
        #: Node address -> the connect in progress.
        self._opening: Dict[str, asyncio.Future] = {}
        #: Always-on tally, a plain int like the links' frames/flushes:
        #: verbs that left the inline path for the recovery coroutine.
        self.recovered = 0
        #: ... and WRITE→CAS chains that left as one frame: verbs counted
        #: minus frames queued, on a run that resent nothing.
        self.chained = 0

    @property
    def now(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    # The hot paths read engine._now directly; same clock here.
    _now = now

    def spawn(self, gen: Generator, name: str = "") -> asyncio.Task:
        """Run ``gen`` under :func:`drive` as a task: ``Engine.spawn``'s
        counterpart, so :class:`~repro.bench.runner.Harness` launches
        drivers here too."""
        return asyncio.get_running_loop().create_task(drive(gen), name=name or None)

    def post_settled(self) -> None:
        """One post fewer in flight: answered, expired, or lost with its
        link or its connect."""
        self.posts_in_flight -= 1
        if not self.posts_in_flight and self._drained is not None:
            self._drained.set_result(None)
            self._drained = None

    async def drain_background(self, timeout_s: float = 10.0) -> int:
        """Wait until no post is in flight; returns how many were when
        called."""
        pending = self.posts_in_flight
        if pending:
            if self._drained is None:
                self._drained = asyncio.get_running_loop().create_future()
            await asyncio.wait([self._drained], timeout=timeout_s)
        return pending

    def live_link(self, node: "NodeHandle") -> Optional["Connection"]:
        """The link to ``node`` if it is up; never connects."""
        conn = self.links.get(node.key)
        return conn if conn is not None and conn.alive else None

    def opening(self, node: "NodeHandle") -> asyncio.Future:
        """The connect to ``node`` in progress, started if there is none;
        resolves to the link, or fails with the connect's ``OSError``.

        Single flight: whatever arrives while a connect is under way —
        every client's first verb, a Get-only client's first posts — joins
        that one instead of each opening (and all but the last orphaning)
        its own.  Done-callbacks run in the order they were added, so what
        joined first is first on the link.
        """
        key = node.key
        opening = self._opening.get(key)
        if opening is None:
            opening = self._opening[key] = asyncio.ensure_future(
                self._open(key)
            )
        return opening

    async def _open(self, key: str) -> "Connection":
        """Dial the node with a socket of our own — the link polls it —
        and hand that socket to the transport."""
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.setblocking(False)
            await loop.sock_connect(sock, wire.sockaddr(key))
            _transport, conn = await loop.create_unix_connection(
                lambda: Connection(loop, sock, self.links), sock=sock
            )
        except BaseException:
            sock.close()
            raise
        finally:
            del self._opening[key]
        old = self.links.get(key)
        if old is not None:  # a reset link's tallies carry on
            conn.frames, conn.flushes, conn.polled = (
                old.frames, old.flushes, old.polled)
        self.links[key] = conn
        return conn

    async def connect(self, node: "NodeHandle") -> "Connection":
        """Open the link to ``node``, or join the open in progress."""
        # Shielded: cancelling one waiter must not cancel the connect.
        return await asyncio.shield(self.opening(node))

    def link_stats(self) -> Dict[str, int]:
        """Frames queued and flushes made, summed over the links — frames
        per flush says how many verbs shared one ``send`` — the answers a
        flush's poll found, the verbs that needed the recovery coroutine,
        and the chains that put two verbs in one frame."""
        links = self.links.values()
        return {
            "frames": sum(conn.frames for conn in links),
            "flushes": sum(conn.flushes for conn in links),
            "polled": sum(conn.polled for conn in links),
            "recovered": self.recovered,
            "chained": self.chained,
        }

    async def aclose(self) -> None:
        """Wait for outstanding posts, then close every link that is up
        (so each is closed once however many endpoints share it).  A
        verb issued afterwards reconnects."""
        await self.drain_background()
        for conn in list(self.links.values()):
            if conn.alive:
                await conn.close()


class _Runner:
    """One op in flight: its generator, stepped by whatever completes the
    command it is blocked on — the link (this is the verb's sink), a loop
    timer, or the recovery task.  The real-substrate counterpart of the
    sim's ``Process``."""

    __slots__ = ("gen", "future", "request", "started", "blocker")

    def __init__(self, gen: Generator, future: asyncio.Future):
        self.gen = gen
        #: Resolved with the generator's result: the op's one future.
        self.future = future
        #: The verb request in flight.
        self.request: Optional[tuple] = None
        self.started = 0.0
        #: The timer or recovery task the op waits on, if it is not the link.
        self.blocker = None

    def step(self, value=None, error: Optional[BaseException] = None) -> bool:
        """Resume the generator and carry out the command it yields.

        True when that finished the op or started a task, i.e. something
        was queued on the loop that may issue a verb this turn; False when
        the next verb is already corked (or the op sleeps).  Total: what
        the generator raises goes to the op's future, never to the caller
        — which may be ``data_received``, where an exception would reset
        the link under every client.
        """
        future = self.future
        if future.done():  # abandoned: a late completion is dropped
            return False
        try:
            if error is None:
                command = self.gen.send(value)
            else:
                command = self.gen.throw(error)
        except StopIteration as stop:
            future.set_result(stop.value)
            return True
        except BaseException as exc:
            future.set_exception(exc)
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return True
        return self.carry_out(command)

    def carry_out(self, command) -> bool:
        """Start what the generator yielded; :meth:`step` says what the
        result means."""
        if type(command) is tuple:
            endpoint, node, _verb, op, body = self.request = command
            if endpoint._obs_proc is not None:
                self.started = time.perf_counter()
            health = endpoint.health
            conn = endpoint.engine.live_link(node)
            if conn is not None and (
                health is None or not health.is_down(node.node_id)
            ):
                conn.submit(op, body, endpoint.timeout_s, self)
                return False
            self._recover(None)
            return True
        if isinstance(command, (int, float)) and command >= 0:
            self.blocker = self.future.get_loop().call_later(
                command / 1e6, self.step
            )
            return False
        return self.step(None, RuntimeError(
            f"the real substrate cannot execute {command!r}; only "
            "non-negative delays and endpoint verb requests are portable "
            "(DESIGN §3.7)"
        ))

    # -- the link's sink ----------------------------------------------------

    def answered(self, status: int, payload: bytes) -> bool:
        endpoint, node, verb, _op, _body = self.request
        if endpoint._obs_proc is not None:
            endpoint._obs_record(
                verb, (time.perf_counter() - self.started) * 1e6
            )
        if status != wire.ST_OK:
            try:
                endpoint._decode(node, verb, status, payload)
            except Exception as exc:  # surfaced inside the generator
                return self.step(None, exc)
        return self.step(payload)

    def failed(self, exc: BaseException) -> None:
        if not self.future.done():
            self._recover(exc)

    # -- off the inline path ------------------------------------------------

    def _recover(self, failure: Optional[BaseException]) -> None:
        endpoint, node, verb, op, body = self.request
        endpoint.engine.recovered += 1
        self.blocker = task = self.future.get_loop().create_task(
            endpoint._recover(node, verb, op, body, failure)
        )
        task.add_done_callback(self._recovered)

    def _recovered(self, task: asyncio.Task) -> None:
        if task.cancelled():
            return  # with the op, or with the loop
        exc = task.exception()
        if exc is not None:
            self.step(None, exc)
        else:
            self.answered(wire.ST_OK, task.result())

    def abandon(self) -> None:
        """The awaiting task was cancelled: unwind the generator now.  A
        response still to come is dropped on arrival."""
        self.gen.close()
        if self.blocker is not None:
            self.blocker.cancel()


async def drive(gen: Generator):
    """Drive one verb-layer generator to completion on asyncio.

    The real-substrate counterpart of ``Engine.run_process``: the
    generator runs in the caller up to its first command, then in whatever
    completes each command — delays sleep on the wall clock, verb
    requests go out on the link and are resumed from it — and any failure
    is thrown into the generator at its yield point.  The caller sleeps on
    one future until the generator returns; a generator that never yields
    (a Get served from shared memory) costs none.
    """
    try:
        command = gen.send(None)
    except StopIteration as stop:
        return stop.value
    runner = _Runner(gen, asyncio.get_running_loop().create_future())
    runner.carry_out(command)
    try:
        return await runner.future
    except asyncio.CancelledError:
        runner.abandon()
        raise


class NodeHandle:
    """Client-side stand-in for a remote memory node.

    Quacks enough like :class:`~repro.memory.node.MemoryNode` for the
    portable layers — ``node_id``/``base``/``end``/``contains`` for
    address routing — plus the node's address and the heap's
    shared-memory name for the optional direct-read fast path.
    """

    __slots__ = ("node_id", "base", "size", "end", "key", "shm", "_seg")

    def __init__(self, node_id: int, base: int, size: int, address: str,
                 shm: str = ""):
        self.node_id = node_id
        self.base = base
        self.size = size
        self.end = base + size
        #: ``@name`` (:func:`~repro.runtime.wire.sockaddr`): what the
        #: runtime dials, and keys its link to this node by.
        self.key = address
        self.shm = shm
        self._seg: Optional[ShmSegment] = None

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end

    # -- direct shared-memory reads (optional fast path) ------------------

    def attach(self) -> None:
        """Map the node's heap read-only into this process."""
        if self._seg is None and self.shm:
            self._seg = ShmSegment(self.shm, writable=False)

    def read_direct(self, addr: int, length: int) -> bytes:
        off = addr - self.base
        return bytes(self._seg.buf[off : off + length])

    def detach(self) -> None:
        if self._seg is not None:
            self._seg.close()  # never unlink: the server owns the segment
            self._seg = None

    @classmethod
    def from_dict(cls, data: Dict) -> "NodeHandle":
        return cls(data["node_id"], data["base"], data["size"],
                   data["unix"], data.get("shm", ""))


class _Awaited:
    """The sink of a request somebody awaits: resolves a future with
    ``(status, payload)``, or fails it."""

    __slots__ = ("future",)

    def __init__(self, future: asyncio.Future):
        self.future = future

    def answered(self, status: int, payload: bytes) -> bool:
        if not self.future.done():
            self.future.set_result((status, payload))
        return True  # its waiter wakes, and may issue the next verb

    def failed(self, exc: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(exc)


class Connection(asyncio.Protocol):
    """One multiplexed connection to a memory node: the process's link.

    Requests carry per-connection ids and :meth:`data_received` hands each
    response to its request's *sink*, straight from the bytes the transport
    delivers, in arrival order — so every client's foreground op and
    fire-and-forget posts share the socket with requests in flight
    concurrently, and a request costs a ``_pending`` entry: no future, no
    reader task, no per-request timer.  A sink has two methods, neither of
    which may raise: ``answered(status, payload)``, true if it queued
    something on the loop that may issue a verb this turn, and
    ``failed(exc)``.  One timer per connection watches the nearest
    deadline; ``_pending`` holds each request's own deadline next to its
    sink, so nothing outlives the request it belongs to.

    Frames leave corked: :meth:`submit` appends to ``_cork`` and
    :meth:`_ring` writes the lot.  Ids grow in cork order, so ``_sent_id``
    (the last id flushed) splits ``_pending`` into frames that may have
    reached the peer and frames that cannot have.

    A link given its ``sock`` polls it once a flush has gone out whole
    (:meth:`_flush`): the answer is nearly always in the socket by then,
    and taking it there saves the loop turn that would deliver it to
    :meth:`data_received`.  ``links`` are the runtime's links, this one
    among them: a link chains round trips inline only while none of the
    others has a request in flight.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 sock: Optional[socket.socket] = None,
                 links: Optional[Dict[str, "Connection"]] = None):
        self._loop = loop
        self._transport: Optional[asyncio.Transport] = None
        #: The socket under the transport; None: a link that never polls.
        self._sock = sock
        self._links = links if links is not None else {}
        self._decoder = wire.FrameDecoder(wire.RESP)
        #: req_id -> (sink, deadline on the loop's clock)
        self._pending: Dict[int, tuple] = {}
        self._timer: Optional[asyncio.TimerHandle] = None
        #: The deadline ``_timer`` fires at; infinite while there is none.
        self._watched = _NEVER
        self._next_id = 0
        self._cork: List[bytes] = []
        self._cork_bytes = 0
        self._flush_queued = False
        #: True while a batch of responses is dispatched: the doorbell
        #: waits for every client the batch resumes.
        self._flush_held = False
        self._sent_id = 0
        self._closed: asyncio.Future = loop.create_future()
        #: False once the connection broke or began closing: a request
        #: then raises :class:`RequestNotSent` without touching the socket.
        self.alive = False
        #: Always-on tallies, plain ints like the server's wakeups/sends:
        #: ``polled`` counts the flushes whose poll found their answer.
        self.frames = 0
        self.flushes = 0
        self.polled = 0

    # -- asyncio.Protocol ---------------------------------------------------

    def connection_made(self, transport) -> None:
        # asyncio's selector transport reads with recv(max_size), 256 KiB
        # by default: a buffer that size can take a fresh mmap per read.
        # The node's frames come no larger than the node's own reads.
        transport.max_size = CORK_BYTES
        self._transport = transport
        self.alive = True

    def data_received(self, data: bytes) -> None:
        if self._answer(data):
            self._flush()

    def _answer(self, data: bytes) -> bool:
        """Hand one read's responses to their sinks.  True when the link
        should ring now; otherwise its flush is queued (or the stream was
        garbage and the link is gone)."""
        try:
            frames = self._decoder.feed(data)
        except ValueError as exc:  # bad length prefix: stream is garbage
            self._fail(exc)
            self._transport.close()
            return False
        pending = self._pending
        # Sinks resume their clients inline and those cork their next
        # verbs.  Ringing for the first of them would leave the rest — and
        # the ops this batch finishes, whose tasks wake after it — a
        # flush behind, and the clients out of step for good.
        self._flush_held = True
        woke = False
        for req_id, status, payload in frames:
            entry = pending.pop(req_id, None)
            if entry is not None and entry[0].answered(status, payload):
                woke = True
        self._flush_held = False
        if not woke:
            # Every client this batch resumed has corked its next verb
            # and nothing else is about to: ring now.
            return True
        # Queued behind the wake-ups just scheduled: the ops these
        # responses finished start their next ones first, and all of it
        # leaves in this one flush.
        self._queue_flush()
        return False

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._fail(exc if exc is not None else
                   ConnectionResetError("connection closed"))
        self._closed.set_result(None)

    def _fail(self, exc: BaseException) -> None:
        self.alive = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self._watched = _NEVER
        pending, self._pending = self._pending, {}
        self._cork.clear()
        for req_id, (sink, _deadline) in pending.items():
            sink.failed(
                ConnectionResetError(str(exc))
                if req_id <= self._sent_id else
                RequestNotSent(f"link died before the flush: {exc}")
            )

    # -- requests -----------------------------------------------------------

    def submit(self, op: int, body: bytes, timeout_s: float, sink) -> None:
        """Queue one request; its response goes to ``sink.answered``.

        The frame leaves with the link's next flush: the one that closes
        the batch of responses being dispatched, if this is a client that
        batch resumed; the next loop turn's otherwise; now if the cork
        buffer is full.

        Raises :class:`RequestNotSent` when the connection was already
        dead, and hands it to ``sink.failed`` when the link dies with the
        frame still corked (both safe to retry on a fresh connection, any
        opcode).  ``sink.failed`` gets asyncio.TimeoutError at this
        request's own deadline (the late response, if any, is dropped on
        arrival), and plain ConnectionResetError when the peer died
        *after* the flush — the ambiguous "response lost" case where the
        server may or may not have executed the request.
        """
        if not self.alive:
            raise RequestNotSent("connection is closed")
        self._next_id += 1
        req_id = self._next_id
        deadline = _monotonic() + timeout_s
        self._pending[req_id] = (sink, deadline)
        if deadline < self._watched:
            self._watch(deadline)
        frame = wire.request_frame(op, req_id, body)
        self._cork.append(frame)
        self._cork_bytes += len(frame)
        self.frames += 1
        if self._cork_bytes >= CORK_BYTES:
            # Never a poll here: this may run mid-dispatch, and what a
            # poll found would be answered ahead of the batch's rest.  A
            # flush still queued will find the cork empty.
            self._ring()
        elif not (self._flush_queued or self._flush_held):
            self._queue_flush()

    def request(self, op: int, body: bytes,
                timeout_s: float) -> asyncio.Future:
        """:meth:`submit` for a caller that awaits the answer: the future
        resolves to ``(status, payload)`` or fails with what ``submit``
        hands a sink."""
        future = self._loop.create_future()
        self.submit(op, body, timeout_s, _Awaited(future))
        return future

    def _queue_flush(self) -> None:
        if not self._flush_queued:
            self._flush_queued = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        """Ring the doorbell, then poll the socket for its answer and
        dispatch what the poll finds here, without a loop turn.

        While no other link has a request in flight, the clients those
        answers resume ring again and poll again, in this loop: a link
        alone keeps nobody waiting.  Otherwise the next ring is queued,
        so each link takes one round trip per loop callback."""
        while self._ring():
            try:
                data = self._sock.recv(CORK_BYTES)
            except BlockingIOError:
                return  # not there yet: the loop's reader takes it
            except OSError as exc:
                self._lost(exc)
                return
            if not data:
                self._lost(ConnectionResetError("connection closed"))
                return
            self.polled += 1
            if not self._answer(data):
                return
            if self._cork and not self._alone():
                self._queue_flush()
                return

    def _ring(self) -> bool:
        """One ``write`` for everything corked.  True when it all went
        into the socket and the link has that socket to poll."""
        self._flush_queued = False
        if not self._cork or not self.alive:
            return False  # a dead link's corked frames fail in _fail()
        data = b"".join(self._cork)
        self._cork.clear()
        self._cork_bytes = 0
        self.flushes += 1
        # From here on bytes may have reached the peer: every later
        # failure of these requests is "response lost", never "not sent".
        self._sent_id = self._next_id
        transport = self._transport
        transport.write(data)
        return self._sock is not None and not transport.get_write_buffer_size()

    def _alone(self) -> bool:
        """No other link of the runtime has a request in flight."""
        for link in self._links.values():
            if link._pending and link is not self:
                return False
        return True

    def _lost(self, exc: OSError) -> None:
        """The poll met the stream's end or an error: end the link as the
        transport's own read would — its requests fail split by
        ``_sent_id``, and the transport closes and reports
        ``connection_lost``."""
        self._fail(exc)
        self._transport.abort()

    def _watch(self, deadline: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(deadline, self._on_deadline)
        self._watched = deadline

    def _on_deadline(self) -> None:
        """Expire every request whose own deadline has passed, then watch
        the nearest one left.  In steady state this runs once per
        ``timeout_s`` per connection and finds nothing to do."""
        self._timer = None
        self._watched = _NEVER
        now = _monotonic()
        nearest = None
        for req_id, (sink, deadline) in list(self._pending.items()):
            if deadline <= now:
                del self._pending[req_id]
                sink.failed(asyncio.TimeoutError())
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


class _PostSink:
    """Where every post of one endpoint ends: a drop is a count, an
    answer is nothing but one post fewer in flight."""

    __slots__ = ("runtime", "counters")

    def __init__(self, runtime: WallClockRuntime, counters: CounterSet):
        self.runtime = runtime
        self.counters = counters

    def answered(self, status: int, payload: bytes) -> bool:
        self.runtime.post_settled()
        if status != wire.ST_OK:
            # The node refused it: a bug in what was posted.  Reported,
            # not raised — this runs inside the link's data_received.
            self.counters.add("fault_post_dropped")
            asyncio.get_running_loop().call_exception_handler({
                "message": f"a posted verb came back with status {status}",
            })
        return False

    def failed(self, exc: BaseException) -> None:
        self.counters.add("fault_post_dropped")
        self.runtime.post_settled()


class RealEndpoint(VerbTransport):
    """Verb transport over sockets + shared memory (one per client).

    The sockets are the runtime's: every endpoint built on one
    :class:`WallClockRuntime` sends over that runtime's one link per
    memory node.  An endpoint with a runtime of its own has a private
    link.

    Mirrors :class:`~repro.rdma.verbs.RdmaEndpoint` behind the
    :class:`~repro.rdma.transport.VerbTransport` contract: verbs are
    generators, fence checks happen client-side before the request is
    issued, and failures surface as the sim's exception types.  What a
    verb yields is its request, ``(endpoint, node, verb, opcode, body)``,
    for :func:`drive`'s runner to put on the link.  With
    ``shm_reads`` enabled, READs that hit an attached node bypass the
    socket and copy straight out of the shared-memory heap ("direct
    shared-memory access where safe": reads tolerate the benign torn-read
    race because object decoding and fingerprints already reject garbage;
    atomics always go through the node's serialization point).
    """

    __slots__ = (
        "engine", "nodes", "counters", "tracer", "fence", "timeout_s",
        "shm_reads", "health", "_node_for", "_counts", "_rng",
        "_rpc_salt", "_rpc_seq", "_obs_proc", "_obs_hist", "_posts",
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
        self.timeout_s = timeout_s
        self.shm_reads = shm_reads
        self.health = health
        #: ``(addr, length) -> NodeHandle``: a memory pool's address map,
        #: over the node handles.
        self._node_for = MemoryPool(self.nodes).node_for
        #: The counters' dict: a verb counts itself without a call.
        self._counts = self.counters.counts
        self._rng = random.Random()
        # RPC dedup tokens: unique per endpoint lifetime (random salt)
        # and per call (sequence) — never reused, never colliding with
        # another client's across a shared server memo.
        self._rpc_salt = random.getrandbits(31) << 32
        self._rpc_seq = 0
        # Bound once at construction: None when observability is disarmed,
        # so the runner pays an identity test where an armed one reads the
        # clock and never touches a registry (the zero-cost conformance
        # contract).
        self._obs_proc = observer.current()
        self._obs_hist: Dict[str, object] = {}
        self._posts = _PostSink(engine, self.counters)
        if shm_reads:
            for node in self.nodes:
                node.attach()

    def _next_token(self) -> int:
        self._rpc_seq += 1
        return self._rpc_salt | self._rpc_seq

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

    async def _recover(self, node: NodeHandle, verb: str, op: int,
                       body: bytes,
                       failure: Optional[BaseException] = None) -> bytes:
        """One verb against one node, riding through connection churn:
        everything that is not "frame on a live, healthy link → answer".

        The runner enters with the ``failure`` its inline attempt met, or
        with None when there was no such attempt: the link is not up, or
        the health view has the node down and lets one probe through per
        interval.

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
        correctness), and CAS — bare, or closing a WRITE→CAS chain —
        resolves its fate by re-reading the target word.  Persistent
        churn marks the node down in the shared health view and surfaces
        as :class:`NodeUnavailable`, exactly like a sim outage window.
        """
        health = self.health
        probing = False
        if failure is None and health is not None \
                and health.is_down(node.node_id):
            if not health.allow_probe(node.node_id):
                self.counters.add("fault_node_unavailable")
                raise NodeUnavailable(
                    f"node {node.node_id} is marked down ({verb})",
                    verb=verb, node_id=node.node_id,
                )
            probing = True
        attempts = 0 if failure is None else 1
        while True:
            if failure is not None:
                if isinstance(failure, asyncio.TimeoutError):
                    self.counters.add("fault_verb_timeout")
                    raise VerbTimeout(
                        f"{verb} to node {node.node_id} timed out after "
                        f"{self.timeout_s}s",
                        verb=verb, node_id=node.node_id,
                    ) from None
                if not isinstance(failure, RequestNotSent):
                    if op in (wire.OP_CAS, wire.OP_WRITE_CAS):
                        return await self._resolve_cas(node, verb, op, body)
                    if op not in wire.RESEND_SAFE_OPS and op not in (
                        wire.OP_RPC, wire.OP_FAA
                    ):
                        break  # no safe replay for this opcode (OP_SHUTDOWN)
                if attempts == RESEND_ATTEMPTS:
                    break
                self.counters.add("conn_resend")
                await asyncio.sleep(backoff_us(
                    attempts, base=RESEND_BACKOFF_US,
                    ceiling=RESEND_BACKOFF_MAX_US,
                    jitter=0.25, rng=self._rng,
                ) / 1e6)
            conn = self.engine.live_link(node)
            if conn is None:
                conn = await self._open_link(node)
            attempts += 1
            try:
                status, payload = await conn.request(
                    op, body, self.timeout_s
                )
            except (asyncio.TimeoutError, OSError) as exc:
                failure = exc
            else:
                if probing:
                    health.mark_up(node.node_id)
                return self._decode(node, verb, status, payload)
        if health is not None:
            health.report_down(node.node_id)
        self.counters.add("fault_node_unavailable")
        raise NodeUnavailable(
            f"node {node.node_id} is unreachable ({verb}: {failure})",
            verb=verb, node_id=node.node_id,
        ) from failure

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

    async def _resolve_cas(self, node: NodeHandle, verb: str, op: int,
                           body: bytes) -> bytes:
        """Disambiguate a CAS whose response was lost by reading the word
        — a bare CAS, or the one that closes a WRITE→CAS chain (the chain's
        body opens with its CAS's, and a resend repeats the whole chain:
        its WRITE is idempotent on a private fresh block).

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
        addr, expected, new = wire.CAS_BODY.unpack_from(body)
        raw = await self._recover(
            node, f"{verb}:fate", wire.OP_READ, wire.READ_BODY.pack(addr, 8)
        )
        (observed,) = wire.U64.unpack(raw)
        if observed == expected and expected != new:
            return await self._recover(node, verb, op, body)
        if observed == new:
            return wire.U64.pack(expected)
        return wire.U64.pack(observed)

    # -- verbs (generators, same surface as RdmaEndpoint) -----------------

    def read(self, addr: int, length: int) -> Generator:
        if self.fence is not None:
            self.fence.check_read(addr, "read", -1)
        node = self._node_for(addr, length)
        self._counts["rdma_read"] += 1
        if self.shm_reads and node._seg is not None:
            self.counters.add("shm_direct_read")
            return node.read_direct(addr, length)
        payload = yield (
            self, node, "read", wire.OP_READ,
            wire.READ_BODY.pack(addr, length),
        )
        return payload

    def _write_request(self, addr: int, data: bytes):
        if self.fence is not None:
            self.fence.check_write(addr, "write", -1)
        node = self._node_for(addr, len(data))
        self._counts["rdma_write"] += 1
        return node, wire.WRITE_HDR.pack(addr) + bytes(data)

    def _cas_request(self, addr: int, expected: int, new: int):
        if self.fence is not None:
            self.fence.check_write(addr, "cas", -1)
        node = self._node_for(addr, 8)
        self._counts["rdma_cas"] += 1
        return node, wire.CAS_BODY.pack(
            addr, expected & 0xFFFFFFFFFFFFFFFF, new & 0xFFFFFFFFFFFFFFFF
        )

    def _faa_request(self, addr: int, delta: int):
        if self.fence is not None:
            self.fence.check_write(addr, "faa", -1)
        node = self._node_for(addr, 8)
        self._counts["rdma_faa"] += 1
        return node, wire.FAA_BODY.pack(addr, delta)

    def write(self, addr: int, data: bytes) -> Generator:
        node, body = self._write_request(addr, data)
        yield self, node, "write", wire.OP_WRITE, body

    def cas(self, addr: int, expected: int, new: int) -> Generator:
        node, body = self._cas_request(addr, expected, new)
        payload = yield self, node, "cas", wire.OP_CAS, body
        return wire.U64.unpack(payload)[0]

    def faa(self, addr: int, delta: int) -> Generator:
        node, body = self._faa_request(addr, delta)
        payload = yield self, node, "faa", wire.OP_FAA, body
        return wire.U64.unpack(payload)[0]

    def write_then_cas(self, addr: int, data: bytes, cas_addr: int,
                       expected: int, new: int) -> Generator:
        """One frame when one link carries both verbs — it is a FIFO, so
        the node WRITEs, then swaps; two links order nothing between
        them, so addresses on different nodes are two frames, the CAS
        sent once the WRITE is answered.  Either way both verbs pass the
        fence, and count, before anything is sent."""
        node, write_body = self._write_request(addr, data)
        cas_node, cas_body = self._cas_request(cas_addr, expected, new)
        if cas_node is node:
            self.engine.chained += 1
            payload = yield (
                self, node, "write_cas", wire.OP_WRITE_CAS,
                cas_body + write_body,
            )
        else:
            yield self, node, "write", wire.OP_WRITE, write_body
            payload = yield self, cas_node, "cas", wire.OP_CAS, cas_body
        return wire.U64.unpack(payload)[0]

    def rpc(self, node: NodeHandle, op: str, payload=None,
            size: int = 64) -> Generator:
        """Controller RPC; ``size`` (a sim cost-model hint) is ignored."""
        if self.fence is not None:
            self.fence.check_rpc(node.node_id, "rpc")
        self._counts["rdma_rpc"] += 1
        # Dedup token (0 for chaos/debug control RPCs, which are
        # idempotent by construction): a resent frame carries the same
        # token, so the server replays the memoized first result instead
        # of executing twice.
        token = 0 if op.startswith("__") else self._next_token()
        raw = yield (
            self, node, f"rpc:{op}", wire.OP_RPC,
            wire.pack_rpc(op, payload, token),
        )
        return pickle.loads(raw)

    # -- asynchronous (unsignalled) posts ---------------------------------

    def post_write(self, addr: int, data: bytes) -> None:
        self._post(wire.OP_WRITE, self._write_request, addr, data)

    def post_faa(self, addr: int, delta: int) -> None:
        self._post(wire.OP_FAA, self._faa_request, addr, delta)

    def _post(self, op: int, request, *args) -> None:
        """Fire-and-forget: the frame joins the node's link now — ahead of
        this client's next verb, and in the same flush — and the post is a
        count on the runtime until it settles; a vanished post costs
        nothing but the update it carried, so it is counted, never resent.
        A post that finds no live link joins the connect to the node and
        goes out when that completes, still ahead of the verb that follows
        it (which joins the same connect, behind it); if the connect
        fails, or the health view has the node down, it is dropped."""
        try:
            node, body = request(*args)
        except StaleEpoch:
            self.counters.add("fenced_post_dropped")
            return
        engine = self.engine
        conn = engine.live_link(node)
        if conn is None and self.health is not None \
                and self.health.is_down(node.node_id):
            self.counters.add("fault_post_dropped")
            return
        engine.posts_in_flight += 1
        if conn is not None:
            conn.submit(op, body, self.timeout_s, self._posts)
        else:
            engine.opening(node).add_done_callback(
                lambda opened: self._post_when_open(opened, op, body)
            )

    def _post_when_open(self, opened: asyncio.Future, op: int,
                        body: bytes) -> None:
        try:
            opened.result().submit(op, body, self.timeout_s, self._posts)
        except (OSError, asyncio.CancelledError) as exc:
            # The connect failed, was cancelled with the loop, or its link
            # is already dead again.
            self._posts.failed(exc)

    # -- lifecycle ---------------------------------------------------------

    async def aclose(self) -> None:
        """Drain the runtime's posts and close its links — shared with
        every endpoint on that runtime, each closed once — then unmap
        this endpoint's heaps."""
        await self.engine.aclose()
        if self.shm_reads:
            for node in self.nodes:
                node.detach()
