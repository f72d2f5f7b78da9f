"""The socket path on both ends, against live nodes and real sockets.

What the thin path promises and the older suites do not pin down:

- **one link per memory node per process** — every client on a runtime
  shares it, concurrent first verbs share one connect, and it dials the
  node's ``AF_UNIX`` address;
- **one flush per loop turn** — requests cork, the turn's frames leave in
  one ``write`` in the order they were issued, and a frame the flush never
  reached is known not to have been sent;
- **verbs resume from the link** — an op's generator is stepped inline by
  the response that completes its verb, so a verb on a live link costs no
  future, coroutine or task; the flush is held while a batch of responses
  is dispatched, so the clients it resumes leave together; a deadline, a
  cancellation, a raising generator or a refused post costs its own op,
  never the link;
- **the doorbell polls for its answer** — an answer already in the socket
  when a flush returns is dispatched from the flush, not by the
  transport's reader; an end the poll meets ends the link as a read
  would; a link chains round trips only while no other link waits;
- **the server loop is total** — hostile bytes cost their sender a status
  reply or its connection, never the node, on either listener; every opcode's body shapes get
  the status and side effects of one table, byte for byte alike whether
  the node is dark or its gate or instruments are armed, and what a frame
  arms meets every frame behind it in the same batch;
- **one metadata dispatch** — node 0 answers membership and weight folds
  the way the sim's controller does, node 1 refuses them, and a resent
  alloc is deduplicated across a kill and an adopt;
- **one deadline timer per connection** — every request still times out at
  its own deadline, and nothing outlives the request it belongs to;
- **framing** — frames decode in order however the kernel segments them,
  and a pipelined train is served in one wake-up;
- **posts are a count** — no future, no task; drops are counted in the
  endpoint's sink and ``drain_background`` still waits for what is in
  flight, one that finds no link joins the connect ahead of the verb
  behind it.

Every memory node here is a real ``repro.runtime.server`` process launched
by the harness; the only fake is a tiny in-test server used to *choose*
how a response is segmented.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import logging
import pickle
import socket
import time
import uuid
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adaptive import GlobalWeights
from repro.core.elasticity import EpochFence
from repro.memory.node import MemoryAccessError
from repro.rdma.verbs import NodeUnavailable, VerbTimeout
from repro.runtime import wire
from repro.runtime.client import (
    CORK_BYTES,
    Connection,
    NodeHandle,
    RealEndpoint,
    RequestNotSent,
    WallClockRuntime,
    drive,
)
from repro.runtime.cluster import RealCluster
from repro.runtime.harness import RealClusterHarness
from repro.runtime.loadgen import run_load
from repro.sim.faults import DropWindow, FaultPlan, LatencySpike, NodeOutage


@pytest.fixture
def harness():
    with RealClusterHarness(
        capacity_objects=512, num_clients=4, num_memory_nodes=1, seed=3
    ) as launched:
        yield launched
    assert launched.leak_report()["clean"]


def _node(harness) -> NodeHandle:
    return NodeHandle.from_dict(harness.descriptor()["nodes"][0])


def _scratch(node: NodeHandle) -> int:
    return node.base + node.size // 2  # heap past the fixed structures


def _recv_frame(sock: socket.socket) -> bytes:
    """One response frame off a blocking socket; b"" if the peer closed."""
    data = b""
    while len(data) < wire.HEADER.size:
        chunk = sock.recv(wire.HEADER.size - len(data))
        if not chunk:
            return b""
        data += chunk
    (length,) = wire.HEADER.unpack(data)
    frame = b""
    while len(frame) < length:
        chunk = sock.recv(length - len(frame))
        assert chunk, "peer closed mid-frame"
        frame += chunk
    return frame


def _dial(entry, listener: str = "unix") -> socket.socket:
    """A blocking socket to a node: at its address, or at the TCP port
    only the benchmark's probes dial."""
    if listener == "unix":
        sock = socket.socket(socket.AF_UNIX)
        sock.connect(wire.sockaddr(entry["unix"]))
    else:
        sock = socket.create_connection((entry["host"], entry["port"]), 5.0)
    sock.settimeout(5.0)
    return sock


def _raw(harness, listener: str = "unix") -> socket.socket:
    return _dial(harness.descriptor()["nodes"][0], listener)


def _stats(harness, index: int = 0) -> dict:
    entry = harness.descriptor()["nodes"][index]
    return harness.raw_rpc(entry, "__stats__", None)


class _Tap:
    """The transport facet Connection uses.  Keeps what was written and
    passes it on to ``transport``, if there is one behind it."""

    def __init__(self, transport=None):
        self.inner = transport
        self.written = []
        self.closed = False

    def write(self, data):
        self.written.append(data)
        if self.inner is not None:
            self.inner.write(data)

    def get_write_buffer_size(self):
        return 0 if self.inner is None else self.inner.get_write_buffer_size()

    def close(self):
        self.closed = True
        if self.inner is not None:
            self.inner.close()


def _unbound_address(role: str) -> str:
    """An abstract name nothing is bound to (yet)."""
    return f"@ditto-test-{role}-{uuid.uuid4().hex[:8]}"


#: A memory node nobody listens at, for links the test itself answers.
_NOWHERE = NodeHandle(0, 0, 1 << 16, _unbound_address("nowhere"))


def _link_to_nowhere(runtime: WallClockRuntime):
    """Install a live link to ``_NOWHERE`` on ``runtime``: what it sends
    stays in the tap, and the test plays the memory node by calling
    ``data_received``."""
    conn = Connection(asyncio.get_running_loop())
    tap = _Tap()
    conn.connection_made(tap)
    runtime.links[_NOWHERE.key] = conn
    return conn, tap


def _answers(req_ids, payload=bytes(8), status=wire.ST_OK) -> bytes:
    return b"".join(
        wire.response_frame(req_id, status, payload) for req_id in req_ids
    )


@contextlib.contextmanager
def _loop_objects_counted():
    """Mocks whose ``call_count`` says how many futures and tasks were
    made on the running loop inside the block."""
    loop = asyncio.get_running_loop()
    with mock.patch.object(
        loop, "create_future", wraps=loop.create_future
    ) as futures, mock.patch.object(
        loop, "create_task", wraps=loop.create_task
    ) as tasks:
        yield futures, tasks


class _AsyncioLog(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


# -- one link per memory node, single-flight connect --------------------------


def test_concurrent_first_posts_share_one_connection(harness):
    """Get-only clients under ``shm_reads``: their posted metadata writes
    are the first socket users, many at once.  The loader and all of them
    must end up on one server connection, and no reader is orphaned."""
    watcher = _AsyncioLog()
    log = logging.getLogger("asyncio")
    log.addHandler(watcher)
    getters = 3

    async def scenario():
        cluster = RealCluster(harness.descriptor(), shm_reads=True)
        loader, *readers = cluster.add_clients(1 + getters)
        try:
            for key_id in range(50):
                await drive(loader.set(b"key-%d" % key_id, b"v" * 64))

            async def gets(client):
                for key_id in range(50):
                    assert await drive(client.get(b"key-%d" % key_id))

            await asyncio.gather(*(gets(client) for client in readers))
            await cluster.engine.drain_background()
            assert cluster.counters.get("shm_direct_read") > 0
            return _stats(harness)["connections"] - 1  # minus this poll
        finally:
            await cluster.aclose()

    try:
        connections = asyncio.run(scenario())
        gc.collect()  # destroyed-task reports are made at collection time
    finally:
        log.removeHandler(watcher)
    assert connections == 1
    assert not [line for line in watcher.lines if "Task was destroyed" in line]


def test_clients_of_a_two_node_cluster_open_two_connections():
    clients = 6
    with RealClusterHarness(
        capacity_objects=512, num_clients=clients, num_memory_nodes=2, seed=3
    ) as launched:

        async def scenario():
            cluster = RealCluster(launched.descriptor())
            try:
                # Concurrent from the first verb: the connects race too.
                async def mix(client):
                    for key_id in range(40):
                        key = b"key-%d-%d" % (client.client_id, key_id)
                        await drive(client.set(key, b"v" * 64))
                        assert await drive(client.get(key))

                await asyncio.gather(
                    *(mix(client) for client in cluster.add_clients(clients))
                )
                await cluster.engine.drain_background()
                stats = cluster.stats()
                assert len(cluster.engine.links) == 2
                # Both links dial the nodes' addresses, not the TCP ports.
                assert {
                    link._transport.get_extra_info("socket").family
                    for link in cluster.engine.links.values()
                } == {socket.AF_UNIX}
                return [
                    _stats(launched, index)["connections"] - 1  # this poll
                    for index in range(2)
                ], stats
            finally:
                await cluster.aclose()
                assert not any(
                    link.alive for link in cluster.engine.links.values()
                )

        connections, stats = asyncio.run(scenario())
    assert launched.leak_report()["clean"]
    assert connections == [1, 1]
    # Six clients' frames shared the flushes of two links.
    assert stats["link_frames"] > stats["link_flushes"] > 0


# -- the server loop is total -------------------------------------------------


def _garbled_rpc() -> bytes:
    # name length 200 but only two bytes follow, and they are not UTF-8
    return wire.request_frame(wire.OP_RPC, 9, b"\xc8\xff\xfe")


HOSTILE_CLOSES = {
    "length prefix above MAX_FRAME":
        wire.HEADER.pack(wire.MAX_FRAME + 1) + b"x" * 32,
    "frame shorter than a request header":
        wire.HEADER.pack(3) + b"\x01\x02\x03",
}

def _rpc_request(op: str, payload, token: int = 0) -> bytes:
    return wire.request_frame(
        wire.OP_RPC, 9, wire.pack_rpc(op, payload, token)
    )


HOSTILE_ANSWERED = {
    "unknown opcode": wire.request_frame(99, 9),
    "truncated READ body": wire.request_frame(wire.OP_READ, 9, b"\x00" * 5),
    "truncated CAS body": wire.request_frame(wire.OP_CAS, 9, b"\x00" * 9),
    "empty WRITE body": wire.request_frame(wire.OP_WRITE, 9),
    "garbled RPC name": _garbled_rpc(),
    "empty RPC body": wire.request_frame(wire.OP_RPC, 9),
    "RPC payload is not a pickle": wire.request_frame(
        wire.OP_RPC, 9, b"\x04list" + wire.U64.pack(0) + b"\x00garbage"),
    "truncated chain header": wire.request_frame(
        wire.OP_WRITE_CAS, 9, b"\x00" * 25),
    "chain with no data to WRITE": wire.request_frame(
        wire.OP_WRITE_CAS, 9, wire.WRITE_CAS_HDR.pack(0, 0, 1, 64)),
    # Well-formed pickles carrying bad metadata payloads.
    "update_weights with the wrong vector length":
        _rpc_request("update_weights", [0.5]),
    "alloc_segment with a str size": _rpc_request("alloc_segment", "4096"),
    "reassign_grants with a scalar": _rpc_request("reassign_grants", 7),
    "free_segment with None": _rpc_request("free_segment", None),
    "add_node, a membership command no RPC serves":
        _rpc_request("add_node", (5, 1 << 30, 1 << 31)),
}


def _assert_a_refused_chain_does_nothing(harness, listener: str = "unix"):
    """A WRITE→CAS chain with one bad half is refused whole: neither the
    valid WRITE nor the valid CAS of it happens."""
    node = _node(harness)
    word, block = _scratch(node), _scratch(node) + 64
    refused = {
        "CAS word out of range": (node.end, block, b"chained!"),
        "CAS word misaligned": (word + 4, block, b"chained!"),
        "WRITE range out of bounds": (word, node.end - 4, b"chained!"),
    }
    for name, (cas_addr, write_addr, data) in refused.items():
        with _raw(harness, listener) as sock:
            chain = wire.WRITE_CAS_HDR.pack(cas_addr, 0, 7, write_addr) + data
            sock.sendall(
                wire.request_frame(wire.OP_WRITE_CAS, 9, chain)
                + wire.request_frame(
                    wire.OP_READ, 10, wire.READ_BODY.pack(word, 72))
            )
            req_id, status = wire.RESP.unpack_from(_recv_frame(sock))
            assert (req_id, status) == (9, wire.ST_ACCESS), name
            after = _recv_frame(sock)
            assert wire.RESP.unpack_from(after) == (10, wire.ST_OK), name
            # word still 0 (the CAS expected 0), block still blank
            assert after[wire.RESP.size:] == bytes(72), name


def _assert_still_serving(harness):
    """A well-behaved client on its own connection gets correct results."""
    node = _node(harness)
    addr = _scratch(node)
    endpoint = RealEndpoint(WallClockRuntime(), [node], timeout_s=5.0)

    def flow():
        yield from endpoint.write(addr, (41).to_bytes(8, "little"))
        old = yield from endpoint.cas(addr, 41, 42)
        lost = yield from endpoint.cas(addr, 41, 43)
        raw = yield from endpoint.read(addr, 8)
        return old, lost, int.from_bytes(raw, "little")

    async def scenario():
        try:
            return await drive(flow())
        finally:
            await endpoint.aclose()

    assert asyncio.run(scenario()) == (41, 42, 42)
    assert harness.procs[0].poll() is None


_OK, _ERROR, _ACCESS = wire.ST_OK, wire.ST_ERROR, wire.ST_ACCESS
_UNTOUCHED = (0, b"")


def _status_table(word: int, block: int, end: int) -> dict:
    """What the node answers each verb's body shapes with, and what the
    frame leaves behind: ``(verb, shape) -> (body, status, the word's
    value after, the block's leading bytes after)``, served against a
    zeroed word and block.  Shapes are the client's body for an 8-byte
    WRITE, a byte short of it, a byte past it, and an address outside the
    node or off an 8-byte boundary (only atomics need one)."""
    data = b"payload!"
    read = wire.READ_BODY.pack(word, 8)
    write = wire.WRITE_HDR.pack(block) + data
    cas = wire.CAS_BODY.pack(word, 0, 7)
    faa = wire.FAA_BODY.pack(word, 5)
    chain = wire.WRITE_CAS_HDR.pack(word, 0, 7, block) + data
    rpc = wire.pack_rpc("get_membership", None)
    return {
        ("READ", "empty"): (b"", _ERROR, *_UNTOUCHED),
        ("READ", "one byte short"): (read[:-1], _ERROR, *_UNTOUCHED),
        ("READ", "exact"): (read, _OK, *_UNTOUCHED),
        ("READ", "one byte long"): (read + b"+", _ERROR, *_UNTOUCHED),
        ("READ", "out of range"): (
            wire.READ_BODY.pack(end - 4, 8), _ACCESS, *_UNTOUCHED),
        ("READ", "misaligned"): (
            wire.READ_BODY.pack(word + 4, 8), _OK, *_UNTOUCHED),
        ("WRITE", "empty"): (b"", _ERROR, *_UNTOUCHED),
        ("WRITE", "one byte short"): (write[:-1], _OK, 0, data[:-1]),
        ("WRITE", "exact"): (write, _OK, 0, data),
        ("WRITE", "one byte long"): (write + b"+", _OK, 0, data + b"+"),
        ("WRITE", "out of range"): (
            wire.WRITE_HDR.pack(end - 4) + data, _ACCESS, *_UNTOUCHED),
        ("WRITE", "misaligned"): (
            wire.WRITE_HDR.pack(block + 4) + data, _OK, 0, bytes(4) + data),
        ("CAS", "empty"): (b"", _ERROR, *_UNTOUCHED),
        ("CAS", "one byte short"): (cas[:-1], _ERROR, *_UNTOUCHED),
        ("CAS", "exact"): (cas, _OK, 7, b""),
        ("CAS", "one byte long"): (cas + b"+", _ERROR, *_UNTOUCHED),
        ("CAS", "out of range"): (
            wire.CAS_BODY.pack(end, 0, 7), _ACCESS, *_UNTOUCHED),
        ("CAS", "misaligned"): (
            wire.CAS_BODY.pack(word + 4, 0, 7), _ACCESS, *_UNTOUCHED),
        ("FAA", "empty"): (b"", _ERROR, *_UNTOUCHED),
        ("FAA", "one byte short"): (faa[:-1], _ERROR, *_UNTOUCHED),
        ("FAA", "exact"): (faa, _OK, 5, b""),
        ("FAA", "one byte long"): (faa + b"+", _ERROR, *_UNTOUCHED),
        ("FAA", "out of range"): (
            wire.FAA_BODY.pack(end, 5), _ACCESS, *_UNTOUCHED),
        ("FAA", "misaligned"): (
            wire.FAA_BODY.pack(word + 4, 5), _ACCESS, *_UNTOUCHED),
        ("WRITE_CAS", "empty"): (b"", _ERROR, *_UNTOUCHED),
        ("WRITE_CAS", "one byte short"): (chain[:-1], _OK, 7, data[:-1]),
        ("WRITE_CAS", "exact"): (chain, _OK, 7, data),
        ("WRITE_CAS", "one byte long"): (chain + b"+", _OK, 7, data + b"+"),
        ("WRITE_CAS", "out of range"): (
            wire.WRITE_CAS_HDR.pack(end, 0, 7, block) + data, _ACCESS,
            *_UNTOUCHED),
        ("WRITE_CAS", "misaligned"): (
            wire.WRITE_CAS_HDR.pack(word + 4, 0, 7, block) + data, _ACCESS,
            *_UNTOUCHED),
        ("PING", "exact"): (b"", _OK, *_UNTOUCHED),
        ("PING", "one byte long"): (b"+", _OK, *_UNTOUCHED),
        ("RPC", "empty"): (b"", _ERROR, *_UNTOUCHED),
        ("RPC", "one byte short"): (rpc[:-1], _ERROR, *_UNTOUCHED),
        ("RPC", "exact"): (rpc, _OK, *_UNTOUCHED),
        # pickle stops at its STOP opcode: a trailing byte is never read
        ("RPC", "one byte long"): (rpc + b"+", _OK, *_UNTOUCHED),
    }


def _serve_status_table(harness, listener: str = "unix") -> dict:
    """Serve every row of :func:`_status_table` on one connection and
    check its status and side effects; the raw reply of each row."""
    node = _node(harness)
    word = _scratch(node)
    block = word + 64
    span = block + 24 - word  # the word, the gap, the block and its tail
    replies = {}
    with _raw(harness, listener) as sock:
        rows = _status_table(word, block, node.end)
        for (verb, shape), (body, status, value, written) in rows.items():
            row = f"{verb}, {shape}"
            sock.sendall(
                wire.request_frame(
                    wire.OP_WRITE, 1, wire.WRITE_HDR.pack(word) + bytes(span))
                + wire.request_frame(getattr(wire, f"OP_{verb}"), 9, body)
                + wire.request_frame(
                    wire.OP_READ, 10, wire.READ_BODY.pack(word, span))
            )
            assert wire.RESP.unpack_from(_recv_frame(sock)) == (1, _OK), row
            reply = _recv_frame(sock)
            assert wire.RESP.unpack_from(reply) == (9, status), row
            after = _recv_frame(sock)[wire.RESP.size:]
            assert after[:16] == wire.U64.pack(value) + bytes(8), row
            assert after[16:64] == bytes(48), row
            assert after[64:] == written.ljust(24, b"\x00"), row
            replies[verb, shape] = reply
    return replies


def _arm(harness, mode: str) -> None:
    entry = harness.descriptor()["nodes"][0]
    if mode == "gate-armed":
        # A gate with nothing to inject still inspects every frame.
        harness.raw_rpc(
            entry, "__chaos_load__", (FaultPlan().to_dict(), time.time())
        )
    elif mode == "stats-armed":
        harness.raw_rpc(entry, "__stats_arm__", None)


@pytest.mark.parametrize("listener", ["unix", "tcp"])
@pytest.mark.parametrize("mode", ["dark", "gate-armed", "stats-armed"])
def test_hostile_bytes_cost_a_reply_or_the_connection_never_the_node(
    harness, mode, listener
):
    _arm(harness, mode)
    _serve_status_table(harness, listener)
    for name, payload in HOSTILE_CLOSES.items():
        with _raw(harness, listener) as sock:
            sock.sendall(payload)
            assert _recv_frame(sock) == b"", name
    for name, payload in HOSTILE_ANSWERED.items():
        with _raw(harness, listener) as sock:
            # A good frame behind the bad one shows the stream stayed in
            # step: the connection is still usable after the error reply.
            sock.sendall(payload + wire.request_frame(wire.OP_PING, 10))
            req_id, status = wire.RESP.unpack_from(_recv_frame(sock))
            assert (req_id, status) == (9, wire.ST_ERROR), name
            req_id, status = wire.RESP.unpack_from(_recv_frame(sock))
            assert (req_id, status) == (10, wire.ST_OK), name
    _assert_a_refused_chain_does_nothing(harness, listener)
    # Half a frame, then the sender walks away.
    with _raw(harness, listener) as sock:
        sock.sendall(wire.request_frame(wire.OP_READ, 1, b"\x00" * 12)[:9])
    _assert_still_serving(harness)


def test_dark_and_armed_frames_get_byte_identical_replies(harness):
    """One handler per opcode: the gate and the instruments wrap it, and
    change no byte of what it answers."""
    entry = harness.descriptor()["nodes"][0]
    dark = _serve_status_table(harness)
    _arm(harness, "gate-armed")
    gated = _serve_status_table(harness)
    harness.raw_rpc(entry, "__chaos_stop__", None)
    _arm(harness, "stats-armed")
    observed = _serve_status_table(harness)
    assert gated == dark
    assert observed == dark


def _data_frames(word: int, first_id: int) -> list:
    return [
        wire.request_frame(op, first_id + index, body)
        for index, (op, body) in enumerate([
            (wire.OP_READ, wire.READ_BODY.pack(word, 8)),
            (wire.OP_WRITE, wire.WRITE_HDR.pack(word + 64) + b"armed!"),
            (wire.OP_CAS, wire.CAS_BODY.pack(word, 0, 0)),
            (wire.OP_FAA, wire.FAA_BODY.pack(word, 0)),
            (wire.OP_PING, b""),
        ])
    ]


@pytest.mark.parametrize("control", ["__chaos_load__", "__stats_arm__"])
def test_what_a_frame_arms_meets_every_frame_behind_it_in_the_batch(
    harness, control
):
    """Armed in the middle of one ``sendall``: no data frame ahead of the
    arming RPC meets the hook, and every one behind it does."""
    word = _scratch(_node(harness))
    payload = (FaultPlan().to_dict(), time.time()) \
        if control == "__chaos_load__" else None
    ahead = _data_frames(word, 1)
    behind = _data_frames(word, 20)
    arm = wire.request_frame(wire.OP_RPC, 10, wire.pack_rpc(control, payload))
    with _raw(harness) as sock:
        sock.sendall(b"".join(ahead + [arm] + behind))
        for _ in range(len(ahead) + 1 + len(behind)):
            assert wire.RESP.unpack_from(_recv_frame(sock))[1] == wire.ST_OK
    stats = _stats(harness)
    if control == "__chaos_load__":
        assert stats["chaos_verdicts"] == {"ok": len(behind)}
    else:
        served = sum(
            row["value"] for row in stats["metrics"]["counters"]
            if row["name"] == "verbs"
        )
        assert served == len(behind)


# -- one metadata dispatch -----------------------------------------------------


@pytest.fixture
def two_nodes():
    with RealClusterHarness(
        capacity_objects=512, num_clients=2, num_memory_nodes=2, seed=3
    ) as launched:
        yield launched
    assert launched.leak_report()["clean"]


def test_node_0_answers_membership_and_weight_folds_and_node_1_refuses(
    two_nodes
):
    node0, node1 = two_nodes.entry_for(0), two_nodes.entry_for(1)
    assert two_nodes.raw_rpc(node0, "get_membership", None) == (
        0, ((0, "active"), (1, "active"))
    )
    config = two_nodes.config
    local = GlobalWeights(len(config.policies), config.learning_rate)
    for sums in ([0.5, 0.0], [0.0, 2.0]):
        assert two_nodes.raw_rpc(node0, "update_weights", sums) == (
            local.handle_update(sums)
        )
    refused = {
        "get_membership": (None, "does not host the membership table"),
        "update_weights": ([0.5, 0.0], "does not host the global weights"),
    }
    for op, (payload, why) in refused.items():
        with pytest.raises(RuntimeError, match=f"status {wire.ST_ERROR}.*{why}"):
            two_nodes.raw_rpc(node1, op, payload)


def _answer(entry, request: bytes):
    """Send one request frame on a fresh connection; the ST_OK result."""
    with _dial(entry) as sock:
        sock.sendall(request)
        frame = _recv_frame(sock)
    assert wire.RESP.unpack_from(frame) == (9, wire.ST_OK)
    return pickle.loads(frame[wire.RESP.size:])


def test_a_resent_alloc_is_deduplicated_across_a_kill_and_adopt(two_nodes):
    entry = two_nodes.entry_for(1)
    resend = _rpc_request("alloc_segment", (4096, 7), token=0xD1770)
    granted = _answer(entry, resend)
    # The adopted node has lost its in-memory RPC memo; only the journal
    # remembers the token.
    assert two_nodes.kill_node(1)
    two_nodes.restart_node(1)
    assert _answer(entry, resend) == granted
    fresh = _rpc_request("alloc_segment", (4096, 7), token=0xD1771)
    assert _answer(entry, fresh) != granted


def test_sigterm_drains_flushes_and_unlinks():
    launched = RealClusterHarness(capacity_objects=256, num_clients=1)
    launched.launch()
    try:
        _assert_still_serving(launched)
        proc = launched.procs[0]
        proc.terminate()
        assert proc.wait(timeout=10) == 0
        assert launched.leak_report()["clean"]
    finally:
        launched.shutdown()


def test_spiked_verb_waits_in_the_timer_heap_not_the_loop(harness):
    entry = harness.descriptor()["nodes"][0]
    spike = FaultPlan(spikes=(
        LatencySpike(0.0, 1e12, extra_us=300_000.0, verbs=("write",)),
    ))
    harness.raw_rpc(entry, "__chaos_load__", (spike.to_dict(), time.time()))
    addr = _scratch(_node(harness))
    with _raw(harness) as slow, _raw(harness) as fast:
        start = time.monotonic()
        slow.sendall(wire.request_frame(
            wire.OP_WRITE, 1, wire.WRITE_HDR.pack(addr) + b"late"))
        fast.sendall(wire.request_frame(
            wire.OP_READ, 2, wire.READ_BODY.pack(addr, 4)))
        # The READ overtakes the delayed WRITE and sees the old bytes.
        frame = _recv_frame(fast)
        assert frame[wire.RESP.size:] == bytes(4)
        assert time.monotonic() - start < 0.25
        assert _stats(harness)["inflight_delayed"] == 1
        req_id, status = wire.RESP.unpack_from(_recv_frame(slow))
        assert (req_id, status) == (1, wire.ST_OK)
        assert time.monotonic() - start >= 0.3
        fast.sendall(wire.request_frame(
            wire.OP_READ, 3, wire.READ_BODY.pack(addr, 4)))
        assert _recv_frame(fast)[wire.RESP.size:] == b"late"
    harness.raw_rpc(entry, "__chaos_stop__", None)


# -- the per-connection deadline timer ----------------------------------------


def test_each_request_times_out_at_its_own_deadline(harness):
    node = _node(harness)
    stall = wire.pack_rpc("__sleep__", 1.5)

    async def scenario():
        endpoint = RealEndpoint(WallClockRuntime(), [node], timeout_s=0.2)
        try:
            # Through the endpoint: N verbs in flight, one shared timeout.
            async def stalled_verb():
                start = time.monotonic()
                with pytest.raises(VerbTimeout):
                    await drive(endpoint.rpc(node, "__sleep__", 1.5))
                return time.monotonic() - start

            for elapsed in await asyncio.gather(
                *(stalled_verb() for _ in range(8))
            ):
                assert 0.2 <= elapsed < 0.6
            assert endpoint.counters.get("fault_verb_timeout") == 8

            # On the connection: each request its own deadline, issued so
            # that the timer must move earlier as well as later.
            conn = endpoint.engine.live_link(node)
            assert conn._pending == {} and conn._timer is None

            async def stalled_request(timeout_s):
                start = time.monotonic()
                with pytest.raises(asyncio.TimeoutError):
                    await conn.request(wire.OP_RPC, stall, timeout_s)
                return time.monotonic() - start

            timeouts = [0.4, 0.15, 0.3, 0.15, 0.25, 0.1]
            elapsed = await asyncio.gather(
                *(stalled_request(t) for t in timeouts)
            )
            for timeout_s, took in zip(timeouts, elapsed):
                assert timeout_s <= took < timeout_s + 0.3
            assert conn._pending == {} and conn._timer is None
            # The stalled node answers a live request meanwhile, and late
            # answers to expired requests are dropped on arrival.
            status, _payload = await conn.request(wire.OP_PING, b"", 1.0)
            assert status == wire.ST_OK
        finally:
            await endpoint.aclose()

    asyncio.run(scenario())


def test_a_link_reads_at_most_what_the_node_reads(harness):
    # asyncio's selector transport reads with recv(256 KiB) by default, a
    # buffer that can cost a fresh mapping per read; a link reads at most
    # CORK_BYTES, the twin of the node's own recv size.
    node = _node(harness)

    async def scenario():
        endpoint = RealEndpoint(WallClockRuntime(), [node], timeout_s=1.0)
        try:
            await drive(endpoint.write(_scratch(node), bytes(8)))
            return endpoint.engine.live_link(node)._transport.max_size
        finally:
            await endpoint.aclose()

    assert asyncio.run(scenario()) == CORK_BYTES


def test_deadline_bookkeeping_stays_bounded_by_requests_in_flight(harness):
    """50 k completed requests leave nothing behind: a per-request entry
    reaped only every ``timeout_s`` would grow with throughput."""
    node = _node(harness)
    in_flight, rounds = 100, 500

    async def scenario():
        loop = asyncio.get_running_loop()
        endpoint = RealEndpoint(WallClockRuntime(), [node])
        try:
            conn = await endpoint.engine.connect(node)
            scheduled_before = len(loop._scheduled)
            most_pending = 0
            for _ in range(rounds):
                futures = [
                    conn.request(wire.OP_PING, b"", 10.0)
                    for _ in range(in_flight)
                ]
                most_pending = max(most_pending, len(conn._pending))
                for status, _payload in await asyncio.gather(*futures):
                    assert status == wire.ST_OK
            assert conn._next_id == in_flight * rounds
            assert most_pending <= in_flight
            assert conn._pending == {}
            # one timer for the connection, not one per request
            assert len(loop._scheduled) <= scheduled_before + 1
        finally:
            await endpoint.aclose()

    asyncio.run(scenario())


# -- framing: split and pipelined frames --------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    bodies=st.lists(st.binary(max_size=40), max_size=12),
    cuts=st.lists(st.integers(min_value=0, max_value=600), max_size=8),
)
def test_decoder_yields_the_same_frames_however_the_stream_is_cut(
    bodies, cuts
):
    frames = [(wire.OP_PING, i, body) for i, body in enumerate(bodies)]
    stream = b"".join(
        wire.HEADER.pack(wire.REQ.size + len(body))
        + wire.REQ.pack(op, req_id) + body
        for op, req_id, body in frames
    )
    assert stream == b"".join(wire.request_frame(*f) for f in frames)
    decoder = wire.FrameDecoder(wire.REQ)
    edges = sorted({min(cut, len(stream)) for cut in cuts} | {len(stream)})
    got, start = [], 0
    for edge in edges:
        got.extend(decoder.feed(stream[start:edge]))
        start = edge
    assert got == frames
    assert all(type(body) is bytes for _op, _req_id, body in got)
    assert decoder.feed(b"") == []


@settings(max_examples=200, deadline=None)
@given(noise=st.binary(max_size=64))
def test_decoder_is_total_on_arbitrary_bytes(noise):
    decoder = wire.FrameDecoder(wire.REQ)
    try:
        frames = decoder.feed(noise)
    except ValueError:
        return  # a clean protocol error: the caller closes the connection
    sizes = [wire.REQ.size + len(body) for _op, _req_id, body in frames]
    assert sum(wire.HEADER.size + size for size in sizes) <= len(noise)
    assert all(wire.REQ.size <= size <= wire.MAX_FRAME for size in sizes)


async def _segmenting_server(segments_for):
    """A server, and a handle on its abstract name, that answers each
    request with the READ payload ``b"r%07d" % req_id``, written as the
    segments ``segments_for(frame)`` yields, with a pause between them so
    the kernel cannot merge them."""

    async def handle(reader, writer):
        try:
            while True:
                frame = await wire.read_frame(reader)
                _op, req_id = wire.REQ.unpack_from(frame)
                response = wire.response_frame(
                    req_id, wire.ST_OK, b"r%07d" % req_id
                )
                for segment in segments_for(response):
                    writer.write(segment)
                    await writer.drain()
                    await asyncio.sleep(0.02)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    address = _unbound_address("segmenting")
    server = await asyncio.start_unix_server(handle, wire.sockaddr(address))
    return server, NodeHandle(0, 0, 1 << 16, address)


def test_client_decodes_a_response_split_across_segments():
    async def scenario():
        # header | id+status | payload halves: every boundary is crossed
        server, node = await _segmenting_server(
            lambda r: (r[:2], r[2:4], r[4:13], r[13:17], r[17:])
        )
        endpoint = RealEndpoint(WallClockRuntime(), [node], timeout_s=5.0)
        try:
            first = await drive(endpoint.read(0, 8))
            second = await drive(endpoint.read(8, 8))
            return first, second
        finally:
            await endpoint.aclose()
            server.close()
            await server.wait_closed()

    assert asyncio.run(scenario()) == (b"r0000001", b"r0000002")


def test_client_decodes_a_pipelined_train_in_one_segment():
    async def scenario():
        conn = Connection(asyncio.get_running_loop())
        transport = _Tap()
        conn.connection_made(transport)
        body = wire.READ_BODY.pack(0, 8)
        futures = [conn.request(wire.OP_READ, body, 5.0) for _ in range(64)]
        # Corked: nothing leaves until the turn's one flush.
        assert transport.written == []
        await asyncio.sleep(0)
        assert transport.written == [b"".join(
            wire.request_frame(wire.OP_READ, req_id, body)
            for req_id in range(1, 65)
        )]
        assert (conn.frames, conn.flushes) == (64, 1)
        train = b"".join(
            wire.response_frame(req_id, wire.ST_OK, b"r%07d" % req_id)
            for req_id in range(1, 65)
        )
        conn.data_received(train[:-3])  # 63 whole frames and a torn one
        assert [f.done() for f in futures] == [True] * 63 + [False]
        conn.data_received(train[-3:])
        results = [f.result() for f in futures]
        conn.connection_lost(None)
        return results

    assert asyncio.run(scenario()) == [
        (wire.ST_OK, b"r%07d" % req_id) for req_id in range(1, 65)
    ]


def test_a_full_cork_buffer_flushes_inline():
    async def scenario():
        conn = Connection(asyncio.get_running_loop())
        transport = _Tap()
        conn.connection_made(transport)
        body = wire.WRITE_HDR.pack(0) + bytes(8 * 1024 - 64)
        frame_bytes = len(wire.request_frame(wire.OP_WRITE, 1, body))
        to_fill = -(-CORK_BYTES // frame_bytes)
        for _ in range(to_fill - 1):
            conn.request(wire.OP_WRITE, body, 5.0)
        assert transport.written == []
        conn.request(wire.OP_WRITE, body, 5.0)  # reaches the cap: goes now
        assert [len(data) for data in transport.written] == [
            to_fill * frame_bytes
        ]
        conn.request(wire.OP_PING, b"", 5.0)  # the next turn's flush
        assert len(transport.written) == 1
        await asyncio.sleep(0)
        assert transport.written[1] == wire.request_frame(
            wire.OP_PING, to_fill + 1)
        assert (conn.frames, conn.flushes) == (to_fill + 1, 2)
        conn.connection_lost(None)

    asyncio.run(scenario())


def test_frames_the_flush_never_reached_fail_as_not_sent():
    async def scenario():
        conn = Connection(asyncio.get_running_loop())
        conn.connection_made(_Tap())
        flushed = conn.request(wire.OP_CAS, wire.CAS_BODY.pack(0, 1, 2), 5.0)
        await asyncio.sleep(0)
        corked = [
            conn.request(wire.OP_CAS, wire.CAS_BODY.pack(0, 1, 2), 5.0),
            conn.request(wire.OP_SHUTDOWN, b"", 5.0),
        ]
        conn.connection_lost(ConnectionResetError("peer reset"))
        # The written frame may have run: ambiguous.  The corked ones
        # cannot have: safe to resend, whatever the opcode.
        with pytest.raises(ConnectionResetError) as lost:
            flushed.result()
        assert not isinstance(lost.value, RequestNotSent)
        for future in corked:
            with pytest.raises(RequestNotSent):
                future.result()
        with pytest.raises(RequestNotSent):
            conn.request(wire.OP_PING, b"", 5.0)
        await asyncio.sleep(0)  # the queued flush finds a dead link

    asyncio.run(scenario())


def test_server_serves_a_pipelined_train_in_order_in_one_wakeup(harness):
    addr = _scratch(_node(harness))
    with _raw(harness) as sock:
        for index in range(64):
            sock.sendall(wire.request_frame(
                wire.OP_WRITE, 1000 + index,
                wire.WRITE_HDR.pack(addr + 8 * index)
                + index.to_bytes(8, "little"),
            ))
            assert _recv_frame(sock)
        before = _stats(harness)
        sock.sendall(b"".join(
            wire.request_frame(
                wire.OP_READ, index, wire.READ_BODY.pack(addr + 8 * index, 8)
            )
            for index in range(64)
        ))
        for index in range(64):
            frame = _recv_frame(sock)
            assert wire.RESP.unpack_from(frame) == (index, wire.ST_OK)
            assert frame[wire.RESP.size:] == index.to_bytes(8, "little")
        after = _stats(harness)
    # 64 READs and the two polls' own frames, in a handful of wake-ups
    # and sends (loopback delivers the train whole; allow it to be split).
    assert after["ops_served"] - before["ops_served"] == 64 + 1
    assert after["wakeups"] - before["wakeups"] <= 4 + 1
    assert after["sends"] - before["sends"] <= 4 + 1


def test_server_decodes_a_request_split_across_segments(harness):
    addr = _scratch(_node(harness))
    write = wire.request_frame(
        wire.OP_WRITE, 1, wire.WRITE_HDR.pack(addr) + b"segment!")
    read = wire.request_frame(wire.OP_READ, 2, wire.READ_BODY.pack(addr, 8))
    stream = write + read
    with _raw(harness) as sock:
        for cut in (2, 9, 20, len(write) + 3):  # in header, body, next frame
            sock.sendall(stream[:cut])
            time.sleep(0.02)
            sock.sendall(stream[cut:])
            assert wire.RESP.unpack_from(_recv_frame(sock)) == (1, wire.ST_OK)
            frame = _recv_frame(sock)
            assert frame[wire.RESP.size:] == b"segment!"


# -- the shared link keeps every client's program order ------------------------


_STEP = st.tuples(
    st.sampled_from(["get", "set", "post"]), st.integers(0, 7)
)


_PROGRAMS = st.lists(st.lists(_STEP, max_size=12), min_size=3, max_size=3)


def _assert_program_order_on_the_link(harness, programs, cold):
    """Three clients run random Get/Set/post programs at once over one
    link.  On the wire, request ids never go backwards (the cork is FIFO
    across queued and inline flushes), each client's posted WRITE is
    ahead of the READ it issued next, and that READ sees the write.
    ``cold``: nothing connects before the programs start, so their first
    posts and verbs race to open the link."""
    node = _node(harness)

    def word(client_index, slot):  # heap tail: no segment reaches it
        return node.end - 4096 + 512 * client_index + 8 * slot

    async def run_program(index, client, program, expected):
        posts = 0
        for step, arg in program:
            if step == "get":
                await drive(client.get(b"prop-%d" % arg))
            elif step == "set":
                await drive(client.set(b"prop-%d" % arg, b"v" * 64))
            else:
                posts += 1
                value = (index << 32 | posts).to_bytes(8, "little")
                client.ep.post_write(word(index, arg), value)
                assert await drive(
                    client.ep.read(word(index, arg), 8)) == value
                expected += [("write", arg, value), ("read", arg)]

    taps = []
    connection_made = Connection.connection_made

    def tapped_from_birth(link, transport):
        taps.append(_Tap(transport))
        connection_made(link, taps[-1])

    async def scenario():
        cluster = RealCluster(harness.descriptor())
        clients = cluster.add_clients(3)
        expected = [[], [], []]
        try:
            if not cold:
                await cluster.engine.connect(node)
            await asyncio.gather(*(
                run_program(index, client, program, expected[index])
                for index, (client, program)
                in enumerate(zip(clients, programs))
            ))
            await cluster.engine.drain_background()
            assert cluster.engine.live_link(node) or not any(programs)
            return expected
        finally:
            await cluster.aclose()

    with mock.patch.object(Connection, "connection_made", tapped_from_birth):
        expected = asyncio.run(scenario())
    assert len(taps) <= 1  # one link, never replaced
    frames = wire.FrameDecoder(wire.REQ).feed(
        b"".join(written for tap in taps for written in tap.written))
    assert [req_id for _op, req_id, _body in frames] == list(
        range(1, 1 + len(frames))
    )
    seen = [[], [], []]
    for op, _req_id, body in frames:
        if op not in (wire.OP_READ, wire.OP_WRITE):
            continue
        (addr,) = wire.WRITE_HDR.unpack_from(body)
        index, offset = divmod(addr - word(0, 0), 512)
        if not 0 <= index < 3:
            continue  # a Get's or Set's own traffic
        if op == wire.OP_WRITE:
            seen[index].append(
                ("write", offset // 8, body[wire.WRITE_HDR.size:]))
        else:
            seen[index].append(("read", offset // 8))
    assert seen == expected


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(programs=_PROGRAMS)
def test_interleaved_clients_keep_their_program_order_on_the_link(
    harness, programs
):
    _assert_program_order_on_the_link(harness, programs, cold=False)


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(programs=_PROGRAMS)
def test_first_posts_and_verbs_race_to_a_cold_link_in_program_order(
    harness, programs
):
    """A post that finds no link joins the connect and leaves ahead of the
    verb behind it: the property above, with no ``connect`` first."""
    _assert_program_order_on_the_link(harness, programs, cold=True)


def test_an_outage_verdict_resets_the_shared_link_and_every_client_recovers(
    harness
):
    """The node resets the connection at the first frame inside an outage
    window, with the other clients' frames behind it in the batch or in
    flight.  One reset now hits every client at once; all of them ride it
    out through the resend path on one replacement link, and no op fails."""
    entry = harness.descriptor()["nodes"][0]
    outage = FaultPlan(outages=(NodeOutage(0, 40_000.0, 48_000.0),))

    async def arm():
        harness.raw_rpc(
            entry, "__chaos_load__", (outage.to_dict(), time.time()))

    async def scenario():
        cluster = RealCluster(harness.descriptor())
        try:
            report = await run_load(
                harness.descriptor(), clients=8, ops=4000, n_keys=200,
                preload=50, seed=5, cluster=cluster, on_start=arm,
            )
            await cluster.engine.drain_background()
            return (report, cluster.engine.link_stats(),
                    len(cluster.engine.links), _stats(harness))
        finally:
            await cluster.aclose()

    report, link_stats, links, stats = asyncio.run(scenario())
    harness.raw_rpc(entry, "__chaos_stop__", None)
    counters = report["counters"]
    assert stats["chaos_verdicts"]["down"] >= 1
    assert report["failed_ops"] == 0
    # More than one client's verb was on the link when it was reset.
    assert counters["conn_resend"] + counters.get("cas_fate_resolved", 0) >= 2
    # One replacement link, and it carries on the tallies of the first.
    assert links == 1 and stats["connections"] - 1 == 1
    verbs = sum(counters.get(f"rdma_{verb}", 0)
                for verb in ("read", "write", "cas", "faa", "rpc"))
    # Every verb left in a frame of its own, or as the second of a chain.
    assert link_stats["chained"] > 0
    assert link_stats["frames"] + link_stats["chained"] >= verbs
    assert 0 < link_stats["flushes"] < link_stats["frames"]


# -- verbs resume from the link -----------------------------------------------


def test_a_hit_get_costs_one_future_and_no_task(harness):
    verbs = ("rdma_read", "rdma_write", "rdma_cas", "rdma_faa", "rdma_rpc")

    async def scenario():
        cluster = RealCluster(harness.descriptor())
        (client,) = cluster.add_clients(1)
        try:
            await drive(client.set(b"key", b"v" * 64))
            await cluster.engine.drain_background()
            # Only the cluster's very first verb, which found no link,
            # took the recovery coroutine (to connect).
            assert cluster.engine.link_stats()["recovered"] == 1
            before = cluster.counters.as_dict()
            with _loop_objects_counted() as (futures, tasks):
                assert await drive(client.get(b"key")) == b"v" * 64
            after = cluster.counters.as_dict()
            # Two READs and the posted metadata WRITE, all on the link ...
            assert [after.get(v, 0) - before.get(v, 0) for v in verbs] == [
                2, 1, 0, 0, 0]
            assert cluster.engine.link_stats()["recovered"] == 1
            # ... for the one future its caller sleeps on.
            assert (futures.call_count, tasks.call_count) == (1, 0)
        finally:
            await cluster.aclose()

    asyncio.run(scenario())


def test_clients_answered_in_one_batch_leave_in_one_flush():
    """The doorbell follows the resumes.  Ringing it for the first client
    a batch resumes would put the others a flush behind and the clients
    out of step for good (-11 % on ``real-read-hot`` when it did)."""
    body = wire.READ_BODY.pack(0, 8)

    def reads(endpoint, count):
        for _ in range(count):
            yield from endpoint.read(0, 8)

    async def one_read_ops(endpoint, count):
        for _ in range(count):
            await drive(reads(endpoint, 1))

    def frames_in(written):
        return [req_id for _op, req_id, _body
                in wire.FrameDecoder(wire.REQ).feed(written)]

    async def scenario():
        runtime = WallClockRuntime()
        conn, tap = _link_to_nowhere(runtime)
        endpoints = [RealEndpoint(runtime, [_NOWHERE]) for _ in range(8)]

        # Eight clients mid-op, answered in one recv: every generator is
        # resumed inline, nothing else is about to issue a verb, and their
        # next READs leave before data_received returns, in one send.
        ops = [asyncio.ensure_future(drive(reads(endpoint, 2)))
               for endpoint in endpoints]
        await asyncio.sleep(0.01)
        assert [frames_in(w) for w in tap.written] == [list(range(1, 9))]
        conn.data_received(_answers(range(1, 9)))
        assert tap.written[1:] == [b"".join(
            wire.request_frame(wire.OP_READ, req_id, body)
            for req_id in range(9, 17)
        )]
        conn.data_received(_answers(range(9, 17)))
        await asyncio.gather(*ops)
        assert (conn.frames, conn.flushes) == (16, 2)

        # Four ops finish in the batch — their tasks wake a turn later
        # and start the next op — and four go on inline: the flush waits
        # behind the wake-ups and ships all eight.
        ops = [asyncio.ensure_future(one_read_ops(endpoint, 2))
               for endpoint in endpoints[:4]]
        ops += [asyncio.ensure_future(drive(reads(endpoint, 2)))
                for endpoint in endpoints[4:]]
        await asyncio.sleep(0.01)
        assert len(tap.written) == 3
        conn.data_received(_answers(range(17, 25)))
        assert len(tap.written) == 3
        await asyncio.sleep(0.01)
        assert sorted(frames_in(tap.written[3])) == list(range(25, 33))
        conn.data_received(_answers(range(25, 33)))
        await asyncio.gather(*ops)
        assert (conn.frames, conn.flushes) == (32, 4)
        assert runtime.link_stats() == {
            "frames": 32, "flushes": 4, "polled": 0, "recovered": 0,
            "chained": 0}
        conn.connection_lost(None)

    asyncio.run(scenario())


def test_a_deadline_fires_verb_timeout_at_the_yield_point():
    async def scenario():
        runtime = WallClockRuntime()
        conn, _tap = _link_to_nowhere(runtime)
        endpoint = RealEndpoint(runtime, [_NOWHERE], timeout_s=0.05)

        def flow():
            try:
                yield from endpoint.read(0, 8)
            except VerbTimeout as exc:
                caught = exc
            endpoint.timeout_s = 5.0
            raw = yield from endpoint.read(8, 8)  # the op goes on from there
            return caught.verb, raw

        op = asyncio.ensure_future(drive(flow()))
        await asyncio.sleep(0.2)
        assert endpoint.counters.get("fault_verb_timeout") == 1
        assert list(conn._pending) == [2]
        conn.data_received(
            _answers([1], b"too late") + _answers([2], b"in time!"))
        assert await op == ("read", b"in time!")
        assert conn._pending == {} and conn.alive
        conn.connection_lost(None)

    asyncio.run(scenario())


def test_cancelling_an_op_closes_its_generator_and_spares_the_link():
    async def scenario():
        runtime = WallClockRuntime()
        conn, tap = _link_to_nowhere(runtime)
        endpoint = RealEndpoint(runtime, [_NOWHERE])
        unwound = []

        def flow():
            try:
                yield from endpoint.read(0, 8)
                yield from endpoint.read(8, 8)
            finally:
                unwound.append(True)

        op = asyncio.ensure_future(drive(flow()))
        await asyncio.sleep(0.01)
        op.cancel()
        with pytest.raises(asyncio.CancelledError):
            await op
        assert unwound == [True]
        # The response is still owed; when it comes it is dropped, not
        # fed to a generator that is gone.
        assert list(conn._pending) == [1]
        conn.data_received(_answers([1]))
        assert conn._pending == {} and conn.frames == 1
        # The link carries the next op as if nothing had happened.
        op = asyncio.ensure_future(drive(endpoint.read(0, 8)))
        await asyncio.sleep(0.01)
        conn.data_received(_answers([2], b"next one"))
        assert await op == b"next one"
        assert conn.alive and not tap.closed
        conn.connection_lost(None)

    asyncio.run(scenario())


def test_a_refused_post_or_a_raising_generator_costs_its_op_not_the_link():
    """Sinks run inside ``data_received``, where an exception would make
    asyncio close the transport: one client's bug would reset the link
    under every client."""
    async def scenario():
        reported = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: reported.append(context["message"]))
        runtime = WallClockRuntime()
        conn, tap = _link_to_nowhere(runtime)
        buggy, poster, refused, polite = (
            RealEndpoint(runtime, [_NOWHERE]) for _ in range(4))

        def raises():
            yield from buggy.read(0, 8)
            raise ValueError("a client's bug")

        poster.post_write(16, b"refused!")
        ops = [asyncio.ensure_future(drive(raises())),
               asyncio.ensure_future(drive(refused.write(1 << 15, b"x"))),
               asyncio.ensure_future(drive(polite.read(0, 8)))]
        await asyncio.sleep(0.01)
        assert runtime.posts_in_flight == 1 and list(conn._pending) == [
            1, 2, 3, 4]
        out_of_range = pickle.dumps("out of range")
        conn.data_received(
            _answers([1], out_of_range, wire.ST_ACCESS)  # the post
            + _answers([2])
            + _answers([3], out_of_range, wire.ST_ACCESS)
            + _answers([4], b"all good")
        )
        with pytest.raises(ValueError, match="a client's bug"):
            await ops[0]
        assert reported == ["a posted verb came back with status 2"]
        assert poster.counters.get("fault_post_dropped") == 1
        assert runtime.posts_in_flight == 0
        with pytest.raises(MemoryAccessError, match="out of range"):
            await ops[1]
        assert await ops[2] == b"all good"
        assert conn.alive and not tap.closed and conn._pending == {}
        # A command no substrate-portable generator yields fails its op
        # at the yield point, like any other failure.
        def confused():
            yield asyncio.sleep

        with pytest.raises(RuntimeError, match="cannot execute"):
            await drive(confused())
        conn.connection_lost(None)

    asyncio.run(scenario())


# -- the doorbell polls for its answer ----------------------------------------


async def _socket_link(runtime: WallClockRuntime):
    """A live link to ``_NOWHERE`` over a real socket pair, polled like
    one the runtime dials; the test plays the node on the other end, a
    non-blocking socket."""
    loop = asyncio.get_running_loop()
    ours, theirs = socket.socketpair(socket.AF_UNIX)
    _transport, conn = await loop.create_unix_connection(
        lambda: Connection(loop, ours, runtime.links), sock=ours)
    runtime.links[_NOWHERE.key] = conn
    theirs.setblocking(False)
    return conn, theirs


class _AnsweringSocket:
    """A link's socket whose node answers inside every ``send``: each
    poll finds the answers to the frames written since the last one."""

    def __init__(self, tap: _Tap):
        self.tap = tap
        self.seen = 0

    def recv(self, _size):
        fresh = self.tap.written[self.seen:]
        self.seen = len(self.tap.written)
        if not fresh:
            raise BlockingIOError
        frames = wire.FrameDecoder(wire.REQ).feed(b"".join(fresh))
        return _answers(req_id for _op, req_id, _body in frames)


def test_an_answer_already_in_the_socket_is_taken_by_the_flushs_poll():
    """The node nearly always answers inside the flush's ``send``: the
    link polls once the doorbell returns and resumes the op from there,
    and the transport's reader delivers nothing."""

    async def scenario():
        runtime = WallClockRuntime()
        conn, node_side = await _socket_link(runtime)
        delivered = []
        conn.data_received = delivered.append  # what the reader would hand
        endpoint = RealEndpoint(runtime, [_NOWHERE])
        op = asyncio.ensure_future(drive(endpoint.read(0, 8)))
        await asyncio.sleep(0)  # the READ is corked, its flush queued
        assert (conn.frames, conn.flushes) == (1, 0)
        node_side.send(wire.response_frame(1, wire.ST_OK, b"answered"))
        assert await asyncio.wait_for(op, 5.0) == b"answered"
        assert (conn.flushes, conn.polled) == (1, 1)
        assert runtime.link_stats()["polled"] == 1
        assert delivered == []
        frames = wire.FrameDecoder(wire.REQ).feed(node_side.recv(4096))
        assert [(op, req_id) for op, req_id, _body in frames] == [
            (wire.OP_READ, 1)]
        await conn.close()
        node_side.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("end", ["eof", "reset"])
def test_an_end_met_by_the_poll_ends_the_link_as_a_read_would(end):
    """The node's end of the stream reaches the poll ahead of the loop's
    reader.  The link fails as the transport's read would fail it: every
    flushed request with ``ConnectionResetError``, and a request it still
    holds — the poll follows a ring that emptied the cork, so that is
    one issued after it — as not sent.  The next verb reconnects, and
    the new link carries the tallies on."""
    node = NodeHandle(0, 0, 1 << 16, _unbound_address("polled"))
    read = wire.READ_BODY.pack(0, 8)

    async def scenario():
        loop = asyncio.get_running_loop()
        with socket.socket(socket.AF_UNIX) as listener:
            listener.bind(wire.sockaddr(node.key))
            listener.listen()
            listener.setblocking(False)
            runtime = WallClockRuntime()
            endpoint = RealEndpoint(runtime, [node], timeout_s=5.0)
            conn = await runtime.connect(node)
            peer, _ = await loop.sock_accept(listener)
            eofs = []
            conn.eof_received = lambda: eofs.append(1)
            waiting = conn.request(wire.OP_READ, read, 5.0)
            await asyncio.sleep(0)  # flushed; its poll found nothing
            assert (conn.flushes, conn.polled) == (1, 0)
            if end == "eof":
                peer.shutdown(socket.SHUT_WR)
            else:
                peer.close()  # the READ unread: the link is reset
            last = conn.request(wire.OP_READ, read, 5.0)
            # One loop turn: the queued flush polls before the reader runs.
            await asyncio.sleep(0)
            assert waiting.done() and last.done() and not conn.alive
            for lost in (waiting, last):
                assert isinstance(lost.exception(), ConnectionResetError)
                assert not isinstance(lost.exception(), RequestNotSent)
            with pytest.raises(RequestNotSent):
                conn.request(wire.OP_READ, read, 5.0)
            await asyncio.wait_for(conn._closed, 5.0)
            assert eofs == []

            op = asyncio.ensure_future(drive(endpoint.read(0, 8)))
            fresh, _ = await loop.sock_accept(listener)
            frames = wire.FrameDecoder(wire.REQ).feed(
                await loop.sock_recv(fresh, 4096))
            [(_op, req_id, _body)] = frames
            await loop.sock_sendall(
                fresh, wire.response_frame(req_id, wire.ST_OK, b"answered"))
            assert await asyncio.wait_for(op, 5.0) == b"answered"
            link = runtime.live_link(node)
            assert link is not conn and link.flushes == 3
            assert runtime.recovered == 1
            await runtime.aclose()
            fresh.close()
            peer.close()

    asyncio.run(scenario())


def test_a_link_chains_round_trips_only_while_no_other_link_waits():
    """While another link has a request in flight, a link takes one round
    trip per loop callback, however many its answers would allow; alone,
    it rings and polls until an op finishes."""
    other = NodeHandle(1, 1 << 16, 1 << 16, _unbound_address("other"))

    def reads(endpoint, count):
        for _ in range(count):
            yield from endpoint.read(0, 8)

    async def scenario():
        loop = asyncio.get_running_loop()
        runtime = WallClockRuntime()
        tap = _Tap()
        conn = Connection(loop, _AnsweringSocket(tap), runtime.links)
        conn.connection_made(tap)
        runtime.links[_NOWHERE.key] = conn
        busy = Connection(loop)
        busy.connection_made(_Tap())
        runtime.links[other.key] = busy
        polls = []
        flush = conn._flush

        def counted():
            before = conn.polled
            flush()
            polls.append(conn.polled - before)

        conn._flush = counted
        endpoint = RealEndpoint(runtime, [_NOWHERE])

        waiting = busy.request(wire.OP_PING, b"", 5.0)
        await asyncio.wait_for(drive(reads(endpoint, 4)), 5.0)
        assert [count for count in polls if count] == [1, 1, 1, 1]

        busy.data_received(_answers([1], b""))
        assert await waiting == (wire.ST_OK, b"")
        polls.clear()
        await asyncio.wait_for(drive(reads(endpoint, 4)), 5.0)
        assert [count for count in polls if count] == [4]
        assert (conn.flushes, conn.polled) == (8, 8)
        conn.connection_lost(None)
        busy.connection_lost(None)

    asyncio.run(scenario())


# -- a WRITE→CAS chain: its lost response, and the fault gate -------------------


@pytest.mark.parametrize("ran", [False, True], ids=["not-run", "ran"])
def test_a_chain_whose_response_is_lost_resolves_like_its_cas(harness, ran):
    """The link dies after the chain's frame was flushed.  The client
    reads the CAS word: still ``expected`` → the node never ran the chain,
    and the whole of it is resent, once, and applied once; already ``new``
    → it ran, success is reported and nothing is resent."""
    node = _node(harness)
    word, block = _scratch(node), _scratch(node) + 64

    def chain(endpoint):
        return endpoint.write_then_cas(block, b"chained!", word, 0, 7)

    async def scenario():
        runtime = WallClockRuntime()
        endpoint = RealEndpoint(runtime, [node], timeout_s=5.0)
        # The first link's flushes stay in the tap: the node sees the chain
        # only if the test sends it there by other means.
        doomed = Connection(asyncio.get_running_loop())
        tap = _Tap()
        doomed.connection_made(tap)
        runtime.links[node.key] = doomed
        try:
            op = asyncio.ensure_future(drive(chain(endpoint)))
            await asyncio.sleep(0.01)
            assert len(tap.written) == 1 and doomed.frames == 1
            if ran:
                other = RealEndpoint(WallClockRuntime(), [node], timeout_s=5.0)
                assert await drive(chain(other)) == 0
                await other.aclose()
            doomed.connection_lost(ConnectionResetError("peer reset"))
            old = await op
            raw = await drive(endpoint.read(word, 72))
            return (old, raw, endpoint.counters.as_dict(),
                    runtime.link_stats())
        finally:
            await endpoint.aclose()

    old, raw, counters, link_stats = asyncio.run(scenario())
    assert old == 0  # the CAS's result, whichever frame carried it
    assert raw == (7).to_bytes(8, "little") + bytes(56) + b"chained!"
    assert counters["cas_fate_resolved"] == 1
    assert counters.get("conn_resend", 0) == 0
    assert (counters["rdma_write"], counters["rdma_cas"]) == (1, 1)
    # The lost frame, the fate READ, the resent chain if the node had not
    # run the first, and this test's closing READ.
    assert link_stats["frames"] == (3 if ran else 4)
    assert link_stats["chained"] == 1


@pytest.mark.parametrize("verb", ["write", "cas"])
def test_a_drop_window_on_either_verb_swallows_the_chain_whole(harness, verb):
    """The gate judges a chain as its verbs, in order: a window on the
    WRITE or on the CAS drops the frame, and with it both effects."""
    entry = harness.descriptor()["nodes"][0]
    node = _node(harness)
    word, block = _scratch(node), _scratch(node) + 64
    plan = FaultPlan(drops=(DropWindow(0.0, 1e12, verbs=(verb,)),))

    async def scenario():
        cluster = RealCluster(harness.descriptor(), timeout_s=0.3)
        (client,) = cluster.add_clients(1)
        endpoint = client.ep
        try:
            await cluster.engine.connect(node)
            harness.raw_rpc(
                entry, "__chaos_load__", (plan.to_dict(), time.time()))
            with pytest.raises(VerbTimeout):
                await drive(
                    endpoint.write_then_cas(block, b"dropped!", word, 0, 7))
            # One Set attempt: it got its block and budget, lost its chain,
            # and gave both back.
            used = cluster.budget.used_bytes
            with pytest.raises(VerbTimeout):
                await drive(client._try_set(b"key", b"v" * 64))
            assert client._pending_block is None
            assert client._pending_budget == 0
            assert cluster.budget.used_bytes == used
            verdicts = _stats(harness)["chaos_verdicts"]
            harness.raw_rpc(entry, "__chaos_stop__", None)
            assert await drive(endpoint.read(word, 72)) == bytes(72)
            assert await drive(client.get(b"key")) is None
            assert await drive(client.set(b"key", b"v" * 64)) is True
            assert await drive(client.get(b"key")) == b"v" * 64
            return verdicts, cluster.counters.as_dict()
        finally:
            await cluster.aclose()

    verdicts, counters = asyncio.run(scenario())
    assert verdicts["drop"] == 2
    assert counters["fault_verb_timeout"] == 2


def test_an_outage_verdict_on_a_chain_resets_the_link_and_runs_none_of_it(
    harness
):
    entry = harness.descriptor()["nodes"][0]
    node = _node(harness)
    word, block = _scratch(node), _scratch(node) + 64
    outage = FaultPlan(outages=(NodeOutage(0, 0.0, 1e12),))

    async def scenario():
        runtime = WallClockRuntime()
        endpoint = RealEndpoint(runtime, [node], timeout_s=5.0)
        try:
            first = await runtime.connect(node)
            harness.raw_rpc(
                entry, "__chaos_load__", (outage.to_dict(), time.time()))
            with pytest.raises(NodeUnavailable):
                await drive(
                    endpoint.write_then_cas(block, b"chained!", word, 0, 7))
            assert not first.alive and runtime.live_link(node) is None
            down = _stats(harness)["chaos_verdicts"]["down"]
            harness.raw_rpc(entry, "__chaos_stop__", None)
            assert await drive(endpoint.read(word, 72)) == bytes(72)
            assert await drive(
                endpoint.write_then_cas(block, b"chained!", word, 0, 7)) == 0
            return down, endpoint.counters.as_dict()
        finally:
            await endpoint.aclose()

    down, counters = asyncio.run(scenario())
    # The chain's own verdict, then one per resend of its fate READ.
    assert down >= 2
    assert counters["cas_fate_resolved"] == 1
    assert counters["fault_node_unavailable"] == 1


# -- posts are a count --------------------------------------------------------


def test_posts_are_a_count_and_count_their_drops(harness):
    node = _node(harness)
    addr = _scratch(node)

    async def scenario():
        runtime = WallClockRuntime()
        endpoint = RealEndpoint(runtime, [node], timeout_s=5.0)
        counters = endpoint.counters
        try:
            # No connection yet: the first posts share one connect.
            for index in range(5):
                assert endpoint.post_write(
                    addr + 8 * index, b"posted!!") is None
            assert await runtime.drain_background() == 5
            assert await runtime.drain_background() == 0
            assert await drive(endpoint.read(addr + 32, 8)) == b"posted!!"
            assert _stats(harness)["connections"] - 1 == 1

            # Connected: a post is an entry on the link and a count on
            # the runtime, not a future and not a task.
            with _loop_objects_counted() as (futures, tasks):
                assert endpoint.post_faa(addr + 64, 5) is None
                assert endpoint.post_write(addr + 72, b"x") is None
                assert runtime.posts_in_flight == 2
            assert (futures.call_count, tasks.call_count) == (0, 0)
            assert await runtime.drain_background() == 2
            assert await drive(endpoint.faa(addr + 64, 0)) == 5

            # A fenced post is dropped before it reaches the socket.
            fence = EpochFence()
            fence.fence_writes(node.base, node.end, 0)
            endpoint.fence = fence
            assert endpoint.post_write(addr, b"doomed") is None
            assert endpoint.post_faa(addr, 1) is None
            endpoint.fence = None
            assert counters.get("fenced_post_dropped") == 2
            assert await runtime.drain_background() == 0

            # A post the node swallows expires on the connection's timer;
            # a drain gives up at its own timeout and leaves it in flight.
            entry = harness.descriptor()["nodes"][0]
            drop = FaultPlan(drops=(DropWindow(0.0, 1e12, verbs=("write",)),))
            harness.raw_rpc(
                entry, "__chaos_load__", (drop.to_dict(), time.time()))
            endpoint.timeout_s = 0.4
            endpoint.post_write(addr, b"swallowed")
            start = time.monotonic()
            assert await runtime.drain_background(timeout_s=0.1) == 1
            assert time.monotonic() - start < 0.3
            assert runtime.posts_in_flight == 1
            assert await runtime.drain_background(timeout_s=2.0) == 1
            assert time.monotonic() - start < 1.0
            assert runtime.posts_in_flight == 0
            assert counters.get("fault_post_dropped") == 1
            harness.raw_rpc(entry, "__chaos_stop__", None)

            # A post on a dying connection: the node is gone but this
            # loop has not seen the reset yet.
            assert harness.kill_node(0)
            assert runtime.live_link(node) is not None
            endpoint.post_write(addr, b"too late")
            assert await runtime.drain_background(timeout_s=2.0) == 1
            assert counters.get("fault_post_dropped") == 2
            # ... and one that finds the connection already dead joins a
            # connect that is refused: dropped, and not tried again.
            assert runtime.live_link(node) is None
            endpoint.post_write(addr, b"later still")
            assert await runtime.drain_background(timeout_s=5.0) == 1
            assert counters.get("fault_post_dropped") == 3
            assert counters.get("conn_resend") == 0
            assert runtime.link_stats()["recovered"] == 0
        finally:
            await endpoint.aclose()

    try:
        asyncio.run(scenario())
    finally:
        harness.shutdown()
        harness.unlink_leaked()  # the killed node's heap, kept for adoption


# -- observability: how well frames batch -------------------------------------


def test_stats_and_load_report_say_how_frames_batch(harness):
    report = asyncio.run(run_load(
        harness.descriptor(), clients=2, ops=200, n_keys=100, preload=20,
        seed=3,
    ))
    assert report["failed_ops"] == 0
    stats = _stats(harness)
    assert stats["obs_armed"] is False and stats["metrics"] is None
    for key in ("ops_served", "wakeups", "sends"):
        assert isinstance(stats[key], int)
    # every wake-up yielded at least one frame; every answer needed a send
    assert 0 < stats["wakeups"] <= stats["ops_served"]
    assert 0 < stats["sends"] <= stats["ops_served"]
    (row,) = report["nodes"]
    assert row["node_id"] == 0
    assert 0 < row["wakeups"] <= row["frames"] <= stats["ops_served"]
    # pickled like every RPC result: plain integers only
    assert pickle.loads(pickle.dumps(row)) == row
    # ... and the client's end: every frame the node counted for this
    # load left in one of the link's flushes.
    links = report["links"]
    assert 0 < links["flushes"] <= links["frames"] <= row["frames"]
    assert all(type(value) is int for value in links.values())
    # ... and how many verbs shared a frame: each install's WRITE and CAS
    # left as one chain, so on this quiet run (nothing resent) the frames
    # are exactly the verbs counted less the chains.
    counters = report["counters"]
    verbs = sum(counters.get(f"rdma_{verb}", 0)
                for verb in ("read", "write", "cas", "faa", "rpc"))
    assert 0 < links["chained"] <= counters["rdma_cas"]
    assert links["frames"] + links["chained"] == verbs
