"""The real-substrate memory-node server process.

One process per memory node (``python -m repro.runtime.server``, or
:func:`main` in a process forked by :mod:`repro.runtime.launcher`): the
node's heap is a POSIX shared-memory segment
(:class:`~repro.runtime.journal.ShmSegment`), verbs arrive
as :mod:`repro.runtime.wire` frames on the node's one address (an
abstract-namespace ``AF_UNIX`` listener named after the heap), and the
very same :class:`~repro.memory.node.MemoryNode` byte/atomic methods that
back the sim substrate execute them.  Segment management runs on
:class:`~repro.runtime.journal.DurableSegmentState`, which mirrors every
grant into a write-through journal at the tail of the same shared-memory
segment — so a SIGKILLed node can be restarted with ``--adopt`` against
the surviving heap and resume with its grant log (and alloc-dedup
tokens) intact; node 0 journals the expert weights beside them.

The serving loop is one thread polling its sockets directly
(``select.poll``, with a dict from fd to connection) — no event loop
runs in this process.  A wake-up reads whatever the socket holds, cuts
it into frames (:class:`~repro.runtime.wire.FrameDecoder`), runs each
through the one handler its opcode maps to in ``_handlers`` (READ,
WRITE, CAS, FAA, WRITE_CAS, PING, RPC, and SHUTDOWN), and answers the
whole batch with one ``send``; bytes the socket will not take wait for
writability.  A dark frame is that and nothing more.  When the fault
gate or the instruments are armed (``self.gate``, ``self._obs``: checked
per frame, since a ``__chaos_load__`` can arm the gate in the middle of
a batch) they wrap the same handler call.  Everything that must happen
*later* — a latency spike's delayed execution and the shutdown grace —
is an entry in one timer heap, and SIGTERM/SIGINT arrive as bytes on a
wake-up socket.  A memory operation
runs to completion inside one frame's turn, so CAS/FAA from any number
of connections linearize by construction — the same serialization point
the sim models with the NIC pipe.  Because that one loop serves every
connection it is *total* on what a socket can deliver: a length prefix
above ``MAX_FRAME`` or too short to hold a request header closes that
connection; an out-of-range or misaligned access is answered with
``ST_ACCESS``; an unknown opcode, a truncated verb body or a garbled RPC
with ``ST_ERROR``; none of them reaches the loop as an exception.
``__stats__`` reports how well frames batch: ``ops_served`` (frames),
``wakeups`` (reads that yielded at least one frame) and ``sends``.

Metadata RPCs are answered by the node's ``MetadataState``, the dispatch
the sim uses too (node 0's also holds the weights and the membership).

Fault injection: a :class:`~repro.sim.faults.FaultInjector` — the class the
sim's endpoints consult — is armed by a control RPC (``__chaos_load__``,
sent over the out-of-band control socket,
:func:`~repro.runtime.harness.control_rpc`) on a clock counting from the
cluster-wide arm instant, and ``__chaos_stop__`` disarms it.  The control
RPCs (every ``__``-prefixed one) pass the gate unjudged.  The gate is
consulted once per verb, *before* the frame executes, so a dropped verb
never ran — the wall-clock equivalent of the sim's drop-at-the-NIC
semantics.  Its ``verdicts`` tally is the one count of what it decided:
``__stats__`` reports it as ``chaos_verdicts``, with the tallies of gates
already disarmed folded in.  A WRITE→CAS
chain (``OP_WRITE_CAS``, named ``write_cas`` in the node's metrics) meets
the gate as its verbs would, in order, and runs whole or not at all: the
first verdict that is not OK is the chain's, and both ranges are validated
before either side effect.

Lifecycle: the harness (``repro.runtime.harness``) starts the node,
reads the ``DITTO-NODE ...`` ready line (printed only once SIGTERM/SIGINT
are handled) for the node's address ``unix=@<shm name>`` (an abstract
name, :func:`~repro.runtime.wire.sockaddr`: an ``--adopt`` restart binds
the same one), the TCP ``port`` the probes dial, and the heap, and later
sends ``OP_SHUTDOWN`` (or SIGTERM/SIGINT); either closes both listeners,
lets delayed answers and unsent responses finish within
``DRAIN_GRACE_S``, and flushes the trace shard.  The shared-memory
segment is unlinked only on a clean shutdown: a SIGKILL leaves
it behind on purpose (that is what restart-and-adopt rides on), and the
harness force-unlinks any survivor at teardown so nothing leaks.  No
``multiprocessing`` resource tracker ever sees the segment, so none can
unlink a heap that is still live, and the node starts no process of its
own.
"""

from __future__ import annotations

import argparse
import heapq
import os
import pickle
import select
import signal
import socket
import sys
import time
from collections import OrderedDict
from typing import Dict, List, Optional

from ..core.adaptive import GlobalWeights
from ..core.elasticity import MembershipTable, MetadataState
from ..memory.controller import OutOfMemoryError
from ..memory.node import MemoryAccessError, MemoryNode
from ..obs import observer
from ..obs.metrics import MetricsRegistry
from ..rdma.verbs import StaleEpoch
from ..sim.faults import DOWN, DROP, OK, FaultInjector, FaultPlan
from . import wire
from .journal import (
    DurableSegmentState,
    GrantJournal,
    ShmSegment,
    journal_bytes,
)

#: Seconds granted to delayed answers (latency spikes) and unsent
#: responses on a graceful shutdown before connections are force-closed.
DRAIN_GRACE_S = 0.5

#: Most bytes taken from a socket per wake-up: bounds how long one
#: connection's pipelined train can keep the loop from the others.
RECV_BYTES = 64 * 1024

LISTEN_BACKLOG = 1024

_READ_EVENTS = select.POLLIN | select.POLLHUP | select.POLLERR
_WRITE_EVENTS = select.POLLOUT | select.POLLHUP | select.POLLERR

#: Memoized (status, body) results kept per node for RPC dedup tokens.
RPC_MEMO_LIMIT = 1024

_VERB_BY_OP = {
    wire.OP_READ: "read",
    wire.OP_WRITE: "write",
    wire.OP_CAS: "cas",
    wire.OP_FAA: "faa",
    wire.OP_RPC: "rpc",
    wire.OP_PING: "ping",
    wire.OP_WRITE_CAS: "write_cas",
}


def shm_name(run_id: str, node_id: int) -> str:
    return f"ditto-{run_id}-mn{node_id}"


class _ServerObs:
    """Pre-bound instruments for the served-frame hot path.

    Built once when observability arms, so a hot frame performs only
    counter adds and histogram records — never a registry lookup or
    allocation.  ``hub`` (the process's observability hub, whose wall
    tracer takes the spans) is optional: ``__stats_arm__`` can arm
    metrics-only introspection at runtime on a node that was launched
    without ``REPRO_TRACE``.
    """

    __slots__ = ("registry", "hub", "verb_count", "verb_us",
                 "frame_bytes", "journal_writes")

    def __init__(self, registry: MetricsRegistry,
                 hub: Optional[observer.Observability] = None):
        self.registry = registry
        self.hub = hub
        self.verb_count = {
            op: registry.counter("verbs", verb=verb)
            for op, verb in _VERB_BY_OP.items()
        }
        self.verb_us = {
            op: registry.histogram("verb.service_us", verb=verb)
            for op, verb in _VERB_BY_OP.items()
        }
        self.frame_bytes = registry.histogram("frame.bytes")
        self.journal_writes = registry.counter("journal.writes")


class _EpochClock:
    """The fault gate's clock: wall-clock microseconds since the arm
    instant, an epoch timestamp broadcast to every node (including one
    restarted mid-run) so all measure windows from the same origin."""

    __slots__ = ("t0",)

    def __init__(self, t0: float):
        self.t0 = t0

    @property
    def now(self) -> float:
        return (time.time() - self.t0) * 1e6


class _Down(Exception):
    """The fault gate's outage verdict: reset this connection."""


class _Conn:
    """One accepted connection: its socket, the decoder holding a frame
    that has not fully arrived, and responses the socket would not take."""

    __slots__ = ("sock", "fd", "conn_id", "decoder", "out", "lane")

    def __init__(self, sock: socket.socket, conn_id: int):
        self.sock: Optional[socket.socket] = sock  # None once closed
        self.fd = sock.fileno()
        self.conn_id = conn_id
        self.decoder = wire.FrameDecoder(wire.REQ)
        self.out = bytearray()
        self.lane: Optional[int] = None


class NodeServer:
    """One memory node served over sockets + shared memory."""

    def __init__(
        self,
        node_id: int,
        base: int,
        size: int,
        reserve: int = 0,
        run_id: str = "dev",
        num_experts: int = 0,
        learning_rate: float = 0.1,
        membership: tuple = (),
        adopt: bool = False,
    ):
        self.node_id = node_id
        total = size + journal_bytes()
        name = shm_name(run_id, node_id)
        if adopt:
            self.shm = ShmSegment(name)
            if self.shm.size < total:
                self.shm.close()
                raise ValueError(
                    f"surviving segment {name} holds "
                    f"{self.shm.size} bytes, adoption needs {total}"
                )
        else:
            self.shm = ShmSegment(name, total)
        self.node = MemoryNode(
            None, size=size, base=base, node_id=node_id, buffer=self.shm.buf
        )
        self._jview = self.shm.buf[size:total]
        weights = GlobalWeights(num_experts, learning_rate) if num_experts else None
        try:
            if adopt:
                self.segments = DurableSegmentState.adopt(
                    node_id, base + reserve, base + size, self._jview
                )
                saved = self.segments.journal.weights()
                if weights is not None and saved is not None:
                    if len(saved) != num_experts:
                        raise ValueError(
                            f"journal holds {len(saved)} weights, node 0 "
                            f"serves {num_experts} experts"
                        )
                    weights.weights = saved
            else:
                self.segments = DurableSegmentState(
                    node_id, base + reserve, base + size,
                    GrantJournal(self._jview),
                )
        except ValueError:
            # Failed adoption: never unlink a heap we could not parse.
            self._release_views()
            self.shm.close()
            self.shm = None
            raise
        #: Segments; on node 0 also the membership table and weights.
        self.metadata = MetadataState(
            MembershipTable(membership) if membership else None
        )
        self.metadata.adopt_node(self.segments)
        if weights is not None:
            # Every fold is journalled before its answer is sent.
            weights.on_update = self.segments.journal.record_weights
            self.metadata.adopt_weights(weights)
        self.gate: Optional[FaultInjector] = None
        self._rpc_memo: "OrderedDict[int, tuple]" = OrderedDict()
        #: Opcode -> the one implementation of that verb.
        self._handlers = {
            wire.OP_READ: self._read,
            wire.OP_WRITE: self._write,
            wire.OP_CAS: self._cas,
            wire.OP_FAA: self._faa,
            wire.OP_WRITE_CAS: self._write_cas,
            wire.OP_PING: self._ping,
            wire.OP_RPC: self._serve_rpc,
            wire.OP_SHUTDOWN: self._shutdown,
        }
        self._poller: Optional[select.poll] = None
        #: Listening fd -> its socket: the node's address and the TCP port.
        self._listeners: Dict[int, socket.socket] = {}
        #: Socket fd -> its accepted connection.
        self._conns: Dict[int, _Conn] = {}
        #: (due, seq, callback) heap: spike delays and the shutdown grace
        #: wait here, on the monotonic clock.
        self._timers: List[tuple] = []
        self._timer_seq = 0
        #: Delayed answers not yet sent (a shutdown waits for them).
        self._delayed = 0
        self._stopping = False
        self._grace_over = False
        #: Request frames parsed; reads that yielded at least one frame;
        #: ``send`` calls.  ops_served / wakeups is how well frames batch.
        self.ops_served = 0
        self.wakeups = 0
        self.sends = 0
        self.started_epoch = time.time()
        #: None until armed (launch-time via REPRO_TRACE, or runtime via
        #: the __stats_arm__ RPC).  Hot paths guard on this being None.
        self._obs: Optional[_ServerObs] = None
        #: Verdict counts of gates already disarmed (__chaos_stop__ folds
        #: them here so a post-drill __stats__ still sees the totals).
        self._chaos_verdicts: dict = {}
        self._conn_seq = 0

    # -- observability -----------------------------------------------------

    def arm_obs(self, hub: Optional[observer.Observability]) -> None:
        """Arm per-frame instrumentation; idempotent.

        With the process's hub (``REPRO_TRACE`` set at launch) spans land
        in its trace shard; without one (the ``__stats_arm__`` RPC on a
        dark node) a standalone registry collects metrics for
        ``__stats__`` to report.
        """
        if self._obs is not None:
            return
        registry = hub.registry if hub is not None else MetricsRegistry()
        self._obs = _ServerObs(registry, hub)
        self.segments.journal.on_record = self._obs.journal_writes.add

    def _gate_verdicts(self) -> dict:
        """Verdict totals: disarmed gates' folded counts plus the live one's."""
        verdicts = dict(self._chaos_verdicts)
        if self.gate is not None:
            for kind, count in self.gate.verdicts.items():
                if count:
                    verdicts[kind] = verdicts.get(kind, 0) + count
        return verdicts

    def _stats(self) -> dict:
        """The ``__stats__`` control-RPC payload: health + metrics."""
        out = {
            "node_id": self.node_id,
            "role": f"mn{self.node_id}",
            "pid": os.getpid(),
            "uptime_s": time.time() - self.started_epoch,
            "ops_served": self.ops_served,
            "wakeups": self.wakeups,
            "sends": self.sends,
            "connections": len(self._conns),
            "inflight_delayed": self._delayed,
            "journal_entries": self.segments.journal.count,
            "grants": sum(
                len(pairs) for pairs in self.segments.grants.values()
            ),
            "chaos_armed": self.gate is not None,
            "chaos_verdicts": self._gate_verdicts(),
            "obs_armed": self._obs is not None,
            "metrics": (
                self._obs.registry.snapshot()
                if self._obs is not None else None
            ),
        }
        return out

    # -- RPC handlers -------------------------------------------------------

    def _rpc(self, op: str, payload, token: int = 0):
        if not op.startswith("__"):
            return self.metadata.serve(op, self.node_id, payload, token)
        if op == "__chaos_load__":
            plan_dict, t0 = payload
            t0 = float(t0)
            plan = FaultPlan.from_dict(plan_dict)
            gate = FaultInjector(
                _EpochClock(t0), plan, node_scope=self.node_id
            )
            self._chaos_verdicts = self._gate_verdicts()
            self.gate = gate
            obs = self._obs
            if obs is not None and obs.hub is not None:
                # Overlay the armed windows on this node's trace shard so
                # the merged view shows faults against served verbs.
                base_ts = obs.hub.ts_from_epoch(t0)
                obs.hub.tracer.fault_windows(plan.to_dict(), base_ts)
                obs.hub.tracer.instant_at(
                    "chaos.armed", "chaos", base_ts, tid=0
                )
            return t0
        if op == "__chaos_stop__":
            self._chaos_verdicts = self._gate_verdicts()
            self.gate = None
            return None
        if op == "__stats__":
            return self._stats()
        if op == "__stats_arm__":
            self.arm_obs(observer.current())
            return True
        raise KeyError(f"no RPC handler registered for {op!r}")

    # -- one handler per opcode -------------------------------------------
    # Each takes a request body and returns (status, payload); what it
    # raises, _run turns into a status.

    def _read(self, body: bytes):
        addr, length = wire.READ_BODY.unpack(body)
        return wire.ST_OK, self.node.read_bytes(addr, length)

    def _write(self, body: bytes):
        (addr,) = wire.WRITE_HDR.unpack_from(body)
        self.node.write_bytes(addr, body[wire.WRITE_HDR.size :])
        return wire.ST_OK, b""

    def _cas(self, body: bytes):
        addr, expected, new = wire.CAS_BODY.unpack(body)
        return wire.ST_OK, wire.U64.pack(
            self.node.compare_and_swap(addr, expected, new)
        )

    def _faa(self, body: bytes):
        addr, delta = wire.FAA_BODY.unpack(body)
        return wire.ST_OK, wire.U64.pack(self.node.fetch_and_add(addr, delta))

    def _write_cas(self, body: bytes):
        # All or nothing: the CAS's word is judged before the WRITE lands,
        # and the WRITE's range before it writes a byte.
        addr, expected, new, write_addr = wire.WRITE_CAS_HDR.unpack_from(body)
        data = body[wire.WRITE_CAS_HDR.size :]
        if not data:
            raise ValueError("a chain's WRITE carries no data")
        node = self.node
        node.word_offset(addr)
        node.write_bytes(write_addr, data)
        return wire.ST_OK, wire.U64.pack(
            node.compare_and_swap(addr, expected, new)
        )

    def _ping(self, body: bytes):
        return wire.ST_OK, b""

    def _shutdown(self, body: bytes):
        self._stop()
        return wire.ST_OK, b""

    def _serve_rpc(self, body: bytes):
        op_name, payload, token = wire.unpack_rpc(body)
        if token:
            memo = self._rpc_memo.get(token)
            if memo is not None:
                # Resent RPC (response lost): replay the first result.
                self._rpc_memo.move_to_end(token)
                return memo
        try:
            result = self._rpc(op_name, payload, token)
        except OutOfMemoryError as err:
            out = wire.ST_OOM, pickle.dumps(str(err))
        except StaleEpoch as err:
            out = wire.ST_STALE, pickle.dumps(
                (str(err), err.node_id, err.epoch)
            )
        else:
            out = wire.ST_OK, pickle.dumps(result)
        if token:
            self._rpc_memo[token] = out
            while len(self._rpc_memo) > RPC_MEMO_LIMIT:
                self._rpc_memo.popitem(last=False)
        return out

    def _run(self, op: int, body: bytes):
        """Run one verb through its opcode's handler; every failure becomes
        a status, never an exception — one loop serves every connection,
        so a hostile or truncated body must cost its sender a reply, not
        the node."""
        handler = self._handlers.get(op)
        try:
            if handler is None:
                raise ValueError(f"unknown opcode {op}")
            return handler(body)
        except MemoryAccessError as err:
            return wire.ST_ACCESS, pickle.dumps(str(err))
        except Exception as err:  # noqa: BLE001 — must not kill the loop
            return wire.ST_ERROR, pickle.dumps(
                (type(err).__name__, str(err))
            )

    # -- frame dispatch ----------------------------------------------------

    def _gate_outcome(self, op: int, body: bytes):
        """Consult the fault gate for this frame; (kind, extra_us).

        Shutdown frames and the control RPCs themselves are exempt — the
        harness must always be able to disarm or stop a node.
        """
        gate = self.gate
        if gate is None or op == wire.OP_SHUTDOWN:
            return None, 0.0
        if op == wire.OP_RPC:
            try:
                control = wire.peek_rpc_name(body).startswith("__")
            except (IndexError, UnicodeDecodeError):
                control = False  # garbled name: _serve_rpc answers ST_ERROR
            if control:
                # Control RPCs (chaos arm/disarm, __stats__ polling) must
                # keep working while faults are injected.
                return None, 0.0
        if op == wire.OP_WRITE_CAS:
            # A chain meets the gate as its verbs would, in order; the
            # first verdict that is not OK is the chain's and nothing of it
            # runs (a failed work request flushes the ones behind it).
            kind, extra_us = gate.verb_outcome(self.node_id, "write")
            if kind != OK:
                return kind, extra_us
            kind, cas_extra_us = gate.verb_outcome(self.node_id, "cas")
            return kind, extra_us + cas_extra_us
        return gate.verb_outcome(self.node_id, _VERB_BY_OP.get(op, "rpc"))

    def _answer_later(self, conn: "_Conn", req_id: int, delay_s: float,
                      execute) -> None:
        """Timer entry: run ``execute`` and send its response after
        ``delay_s``, while the loop keeps serving every connection: a
        latency spike (the sim's extra-lead-latency semantics: the verb
        executes at its delayed completion time)."""
        self._delayed += 1

        def fire():
            self._delayed -= 1
            status, out = execute()
            if conn.sock is not None:
                self._send(conn, wire.response_frame(req_id, status, out))

        self._call_later(delay_s, fire)

    def _call_later(self, delay_s: float, callback) -> None:
        self._timer_seq += 1
        heapq.heappush(
            self._timers,
            (time.monotonic() + delay_s, self._timer_seq, callback),
        )

    def _serve_frame(self, conn: "_Conn", op: int, req_id: int,
                     body: bytes) -> Optional[bytes]:
        """Run one request frame, as the decoder parsed it, through its
        opcode's handler and answer it.

        Dark, that is all; armed (a fault gate, or instruments), the gate
        and the instruments wrap the same handler.  Checked per frame: a
        ``__chaos_load__`` earlier in this batch arms the frames behind it.
        Returns the response frame, or None when nothing is sent now (a
        dropped verb, a delayed one); raises :class:`_Down` when the gate
        says this connection must be reset.
        """
        self.ops_served += 1
        if self.gate is None and self._obs is None:
            status, out = self._run(op, body)
        else:
            status, out = self._run_armed(conn, op, req_id, body)
        if status is None:
            return None
        return wire.response_frame(req_id, status, out)

    def _run_armed(self, conn: "_Conn", op: int, req_id: int, body: bytes):
        """:meth:`_run` behind the fault gate, timed by the instruments.
        (None, None) when the gate swallowed or delayed the verb."""
        obs = self._obs
        if obs is not None:
            obs.frame_bytes.record(wire.REQ.size + len(body))
        kind, extra_us = self._gate_outcome(op, body)
        if kind == DROP:
            return None, None  # swallowed before execution: client times out
        if kind == DOWN:
            raise _Down  # outage window: reset, client sees NodeUnavailable
        if extra_us > 0.0:
            if obs is not None and obs.hub is not None:
                # The delayed execution overlaps whatever runs next on
                # this connection: an instant, not a span, keeps the lane
                # properly nested.
                obs.hub.tracer.instant_at(
                    f"{_VERB_BY_OP.get(op, 'rpc')}.delayed",
                    "verb", obs.hub.now_us(), tid=self._lane(conn),
                    args={"extra_us": extra_us},
                )
            self._answer_later(
                conn, req_id, extra_us / 1e6, lambda: self._run(op, body),
            )
            return None, None
        if obs is None or op == wire.OP_SHUTDOWN:
            return self._run(op, body)
        start_us = obs.hub.now_us() if obs.hub is not None else 0.0
        t0 = time.perf_counter()
        status, out = self._run(op, body)
        service_us = (time.perf_counter() - t0) * 1e6
        counter = obs.verb_count.get(op)
        if counter is not None:
            counter.add()
            obs.verb_us[op].record(service_us)
        if obs.hub is not None:
            obs.hub.tracer.complete(
                _VERB_BY_OP.get(op, "rpc"), "verb", start_us,
                tid=self._lane(conn), args={"status": status},
            )
        return status, out

    def _lane(self, conn: "_Conn") -> int:
        """This connection's trace lane, allocated on its first observed
        frame.  One thread serves frames one after another, so spans nest
        trivially within a lane; each connection gets its own."""
        if conn.lane is None:
            conn.lane = self._obs.hub.lane(f"conn-{conn.conn_id}")
        return conn.lane

    # -- the readiness loop ------------------------------------------------

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _addr = listener.accept()
            except OSError:
                # Backlog empty (BlockingIOError), or e.g. EMFILE: what is
                # still queued waits for the next turn.
                return
            sock.setblocking(False)
            if sock.family == socket.AF_INET:  # EOPNOTSUPP on AF_UNIX
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn_seq += 1
            conn = _Conn(sock, self._conn_seq)
            self._conns[conn.fd] = conn
            self._poller.register(conn.fd, select.POLLIN)

    def _on_readable(self, conn: "_Conn") -> None:
        """Read what the socket holds, serve every complete frame in it,
        and answer the whole batch with one send."""
        try:
            data = conn.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._close(conn)  # client went away
            return
        try:
            frames = conn.decoder.feed(data)
        except ValueError:
            self._close(conn)  # bad length prefix: cannot resynchronise
            return
        if not frames:
            return
        self.wakeups += 1
        serve = self._serve_frame
        responses = []
        down = False
        try:
            for op, req_id, body in frames:
                response = serve(conn, op, req_id, body)
                if response is not None:
                    responses.append(response)
        except _Down:
            down = True  # frames behind the verdict are never served
        if responses:
            self._send(conn, b"".join(responses))
        if down and conn.sock is not None:
            self._close(conn)

    def _send(self, conn: "_Conn", data: bytes) -> None:
        """One ``send``; what the socket will not take now waits in
        ``conn.out`` for writability, and the connection is not read
        again until it has drained (a peer that does not read its
        responses stalls itself, not the node)."""
        if conn.out:
            conn.out += data
            return
        self.sends += 1
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)
            return
        if sent < len(data):
            conn.out += data[sent:]
            self._poller.modify(conn.fd, select.POLLOUT)

    def _on_writable(self, conn: "_Conn") -> None:
        self.sends += 1
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        del conn.out[:sent]
        if not conn.out:
            self._poller.modify(conn.fd, select.POLLIN)

    def _close(self, conn: "_Conn") -> None:
        del self._conns[conn.fd]
        self._poller.unregister(conn.fd)
        conn.sock.close()
        conn.sock = None

    # -- lifecycle ---------------------------------------------------------

    def _stop(self) -> None:
        """Begin a graceful shutdown (OP_SHUTDOWN, SIGTERM or SIGINT).

        Data verbs execute without yielding, so none is ever mid-flight;
        what can be are delayed answers (latency spikes) and responses a
        socket has not taken yet.  The loop keeps turning
        until those finish or ``DRAIN_GRACE_S`` runs out.
        """
        if not self._stopping:
            self._stopping = True
            for fd, listener in self._listeners.items():
                self._poller.unregister(fd)
                listener.close()
            self._listeners.clear()
            self._call_later(DRAIN_GRACE_S, self._end_grace)

    def _end_grace(self) -> None:
        self._grace_over = True

    def _drained(self) -> bool:
        return self._grace_over or (
            self._delayed == 0 and not any(c.out for c in self._conns.values())
        )

    def serve(self, announce=print) -> None:
        """Bind, announce the ready line, and serve until stopped."""
        address = "@" + self.shm.name
        try:
            with socket.socket(socket.AF_UNIX) as local, \
                    socket.socket(socket.AF_INET) as tcp:
                local.bind(wire.sockaddr(address))
                tcp.bind(("127.0.0.1", 0))
                self._poller = select.poll()
                for listener in (local, tcp):
                    listener.listen(LISTEN_BACKLOG)
                    listener.setblocking(False)
                    self._poller.register(listener.fileno(), select.POLLIN)
                    self._listeners[listener.fileno()] = listener
                try:
                    self._loop(announce, (
                        f"DITTO-NODE node_id={self.node_id} "
                        f"port={tcp.getsockname()[1]} unix={address} "
                        f"shm={self.shm.name} "
                        f"base={self.node.base} size={self.node.size}"
                    ))
                finally:
                    for conn in list(self._conns.values()):
                        self._close(conn)
        finally:
            self._flush_obs()
            self.close()

    def _loop(self, announce, ready_line: str) -> None:
        # Signals reach the loop as bytes on a wake-up socket, so poll()
        # returns at once instead of being retried around a handler.  The
        # ready line goes out only once the handlers are in: a SIGTERM
        # sent the moment it is read must stop the loop (and unlink the
        # heap), not kill the process with the default action.
        wake_r, wake_w = socket.socketpair()
        with wake_r, wake_w:
            wake_r.setblocking(False)
            wake_w.setblocking(False)
            self._poller.register(wake_r.fileno(), select.POLLIN)
            old_wakeup = signal.set_wakeup_fd(wake_w.fileno())
            old_handlers = {
                sig: signal.signal(sig, lambda _signum, _frame: None)
                for sig in (signal.SIGTERM, signal.SIGINT)
            }
            try:
                announce(ready_line)
                self._turn_until_stopped(wake_r)
            finally:
                signal.set_wakeup_fd(old_wakeup)
                for sig, handler in old_handlers.items():
                    signal.signal(sig, handler)

    def _turn_until_stopped(self, wake_r: socket.socket) -> None:
        poll = self._poller.poll
        conns = self._conns
        listeners = self._listeners
        wake_fd = wake_r.fileno()
        timers = self._timers
        while not (self._stopping and self._drained()):
            timeout_ms = None
            if timers:
                timeout_ms = max(0.0, timers[0][0] - time.monotonic()) * 1e3
            for fd, events in poll(timeout_ms):
                conn = conns.get(fd)
                if conn is None:
                    if fd in listeners:
                        self._accept(listeners[fd])
                    elif fd == wake_fd:
                        wake_r.recv(64)
                        self._stop()
                    continue
                # A hang-up or an error counts as both directions: the
                # pending send or the read meets it and closes.
                if events & _WRITE_EVENTS and conn.out:
                    self._on_writable(conn)
                if events & _READ_EVENTS and conn.sock is not None:
                    self._on_readable(conn)
            while timers and timers[0][0] <= time.monotonic():
                heapq.heappop(timers)[2]()

    def _flush_obs(self) -> None:
        """Write the trace shard now, before the heap is unlinked.

        The SIGTERM path stops the loop and tears down through ``serve``'s
        ``finally`` without ever raising through ``main`` — on some
        interpreter/exit combinations atexit hooks are skipped, so the
        shard is committed here where shutdown is already serialized.
        """
        hub = observer.current()
        if hub is not None:
            try:
                hub.flush()
            except OSError:
                pass

    def _release_views(self) -> None:
        if self._jview is not None:
            self._jview.release()
            self._jview = None
        if self.node is not None:
            self.node._memory.release()

    def close(self) -> None:
        """Release the heap and unlink it: this node owns its segment."""
        if self.shm is None:
            return
        self._release_views()
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
        self.shm = None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Ditto real-substrate memory-node server"
    )
    parser.add_argument("--node-id", type=int, required=True)
    parser.add_argument("--base", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--reserve", type=int, default=0)
    parser.add_argument("--run-id", default="dev")
    parser.add_argument("--adopt", action="store_true",
                        help="attach to the surviving shared-memory segment "
                             "of a crashed instance, rebuild grant state "
                             "and weights from its journal and serve on its "
                             "address")
    parser.add_argument("--experts", type=int, default=0,
                        help="host the global adaptive weights (node 0)")
    parser.add_argument("--learning-rate", type=float, default=0.1)
    parser.add_argument("--membership", default="",
                        help="comma-separated node ids to advertise")
    args = parser.parse_args(argv)
    membership = [int(part) for part in args.membership.split(",") if part]
    try:
        server = NodeServer(
            args.node_id, args.base, args.size, reserve=args.reserve,
            run_id=args.run_id, num_experts=args.experts,
            learning_rate=args.learning_rate, membership=membership,
            adopt=args.adopt,
        )
    except (ValueError, FileNotFoundError, FileExistsError) as err:
        print(f"DITTO-NODE-ERROR node_id={args.node_id} {err}",
              file=sys.stderr, flush=True)
        return 1
    hub = observer.init(f"mn{args.node_id}")
    if hub is not None:
        server.arm_obs(hub)

    def announce(line: str) -> None:
        print(line, flush=True)

    try:
        server.serve(announce=announce)
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
