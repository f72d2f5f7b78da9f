"""Framed wire protocol between real-substrate clients and memory nodes.

Every message is a length-prefixed frame on a stream socket — a memory
node's one address (:func:`sockaddr`), or the loopback TCP port that only
the benchmark's probes dial::

    <u32 frame length> <frame>

A request frame is ``<u8 opcode> <u64 request id> <body>``; a response
frame is ``<u64 request id> <u8 status> <body>``.  Request ids are
per-connection and chosen by the client, so many in-flight requests can
multiplex one stream (a client's background posts share its connection
with the foreground op) and responses may return in any order.

Verb bodies are fixed little-endian structs mirroring the RDMA verb
shapes.  ``OP_WRITE_CAS`` is a two-verb work-request chain in one frame —
``<cas addr, expected, new> <write addr> <data>``, answered with the CAS's
old value: the node WRITEs, then swaps, in that order, and does neither
unless both ranges are valid.  Its body opens like a bare CAS's, so
``CAS_BODY.unpack_from`` reads the CAS of either opcode.  RPC
payloads/results are pickled (clients and servers are
processes of the same trusted launcher — this is a test/deployment
substrate, not an untrusted network service).

Error statuses carry enough to re-raise the *same* exception types the
sim substrate uses, keeping client retry machinery substrate-blind.

RPC frames additionally carry a client-chosen u64 *dedup token* between
the op name and the pickled payload.  A connection can die after the
request was sent but before the response arrives ("response lost"); the
client may then transparently resend the RPC over a fresh connection,
and the server uses the token to return the memoized first result
instead of executing twice.  Token 0 means "no dedup" (fire-and-forget
or read-only RPCs).  ``alloc_segment`` tokens are additionally persisted
in the node's grant journal, so dedup survives a server crash/restart.
"""

from __future__ import annotations

import pickle
import struct
from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # asyncio stays out of the memory-node process
    from asyncio import StreamReader

# -- opcodes ---------------------------------------------------------------

OP_READ = 1
OP_WRITE = 2
OP_CAS = 3
OP_FAA = 4
OP_RPC = 5
OP_PING = 6
OP_SHUTDOWN = 7
OP_WRITE_CAS = 8

# -- response statuses -----------------------------------------------------

ST_OK = 0
#: Generic server-side failure; body is a pickled (type name, message).
ST_ERROR = 1
#: Out-of-range / misaligned memory access (MemoryAccessError).
ST_ACCESS = 2
#: Segment allocation failed (OutOfMemoryError).
ST_OOM = 3
#: Epoch-fenced NACK (StaleEpoch); body is pickled (message, node_id, epoch).
ST_STALE = 4

HEADER = struct.Struct("<I")
REQ = struct.Struct("<BQ")
RESP = struct.Struct("<QB")


def _head(fixed: struct.Struct) -> struct.Struct:
    """Length prefix and a direction's fixed fields as one struct, so a
    frame's head is packed, and parsed, with a single call."""
    return struct.Struct(HEADER.format + fixed.format.lstrip("<"))


_REQ_HEAD = _head(REQ)
_RESP_HEAD = _head(RESP)

READ_BODY = struct.Struct("<QI")     # addr, length
WRITE_HDR = struct.Struct("<Q")      # addr (data follows)
CAS_BODY = struct.Struct("<QQQ")     # addr, expected, new
FAA_BODY = struct.Struct("<Qq")      # addr, signed delta
#: A chain's body is its CAS's body, then its WRITE's: cas addr, expected,
#: new, write addr (data follows).
WRITE_CAS_HDR = struct.Struct(CAS_BODY.format + WRITE_HDR.format.lstrip("<"))
U64 = struct.Struct("<Q")

MAX_FRAME = 64 * (1 << 20)

#: Opcodes a client may transparently resend after "response lost"
#: (request sent, connection died before the reply): READ and PING are
#: pure, WRITE is idempotent (object writes target private fresh blocks;
#: metadata writes rewrite the same bytes).  CAS is *not* here — a
#: resend could apply twice — the client resolves its fate by re-reading
#: the target word; a WRITE→CAS chain resolves like its CAS, and resends
#: whole.  FAA is not here either: the client special-cases it
#: (the only FAA target is the history clock, where a rare double
#: increment is benign).  RPCs resend under their dedup token.
RESEND_SAFE_OPS = frozenset({OP_READ, OP_WRITE, OP_PING})


def sockaddr(address: str) -> str:
    """The ``AF_UNIX`` name of a node address ``@name`` (as ``ss`` prints
    it): a leading NUL puts ``name`` in Linux's abstract namespace, where
    no file is created, so none is left to unlink."""
    return "\0" + address[1:]


def request_frame(op: int, req_id: int, body: bytes = b"") -> bytes:
    return _REQ_HEAD.pack(REQ.size + len(body), op, req_id) + body


def response_frame(req_id: int, status: int, body: bytes = b"") -> bytes:
    return _RESP_HEAD.pack(RESP.size + len(body), req_id, status) + body


def pack_rpc(op_name: str, payload, token: int = 0) -> bytes:
    name = op_name.encode("utf-8")
    return (
        bytes((len(name),)) + name + U64.pack(token) + pickle.dumps(payload)
    )


def unpack_rpc(body: bytes):
    name_len = body[0]
    op_name = body[1 : 1 + name_len].decode("utf-8")
    (token,) = U64.unpack_from(body, 1 + name_len)
    payload = pickle.loads(body[1 + name_len + U64.size :])
    return op_name, payload, token


def peek_rpc_name(body: bytes) -> str:
    """The RPC op name without unpickling the payload (gate fast path)."""
    return body[1 : 1 + body[0]].decode("utf-8")


class FrameDecoder:
    """Cuts a byte stream into frames, however the kernel segmented it.

    Each end of a connection builds one over the fixed struct of the
    frames it receives (:data:`REQ` or :data:`RESP`), feeds it whatever one
    ``recv`` returned and gets back every frame that completed, in order,
    already parsed: ``(opcode, request id, body)`` triples from requests,
    ``(request id, status, body)`` from responses — one unpack over length
    prefix and fixed fields, one slice for the body.  A train of pipelined
    frames costs one call, and a frame split across segments waits in the
    decoder until its tail arrives.  A length prefix outside
    ``[fixed.size, MAX_FRAME]`` raises :class:`ValueError` as soon as its
    four bytes are in: the stream cannot be resynchronised, so the caller
    closes the connection.  At most one frame's bytes are ever held back.
    """

    __slots__ = ("_tail", "_min_frame", "_head")

    def __init__(self, fixed: struct.Struct):
        self._tail = bytearray()
        self._min_frame = fixed.size
        self._head = _head(fixed)

    def feed(self, data: bytes) -> List[Tuple[int, int, bytes]]:
        tail = self._tail
        if tail:
            tail += data
            buf = tail
        else:
            buf = data
        frames = []
        unpack_head, head_size = self._head.unpack_from, self._head.size
        pos, end_of_data = 0, len(buf)
        while end_of_data - pos >= HEADER.size:
            if end_of_data - pos >= head_size:
                length, first, second = unpack_head(buf, pos)
            else:  # a torn head: only its length prefix can be judged yet
                (length,) = HEADER.unpack_from(buf, pos)
            if not self._min_frame <= length <= MAX_FRAME:
                raise ValueError(f"bad frame length: {length} bytes")
            frame_end = pos + HEADER.size + length
            if frame_end > end_of_data:
                break
            frames.append((first, second, buf[pos + head_size : frame_end]))
            pos = frame_end
        if buf is tail:
            del tail[:pos]
            # Slices of the held-back bytearray: hand out bytes like the
            # common path, where ``buf`` is what ``recv`` returned.
            frames = [(a, b, bytes(body)) for a, b, body in frames]
        elif pos < end_of_data:
            tail += buf[pos:]
        return frames


async def read_frame(reader: StreamReader) -> bytes:
    """Read one frame from an asyncio stream (tools and probes; the
    client and server decode with :class:`FrameDecoder`).  Raises
    ``asyncio.IncompleteReadError`` on a clean/dirty EOF."""
    header = await reader.readexactly(HEADER.size)
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ValueError(f"oversized frame: {length} bytes")
    return await reader.readexactly(length)


__all__ = [
    "OP_READ", "OP_WRITE", "OP_CAS", "OP_FAA", "OP_RPC", "OP_PING",
    "OP_SHUTDOWN", "OP_WRITE_CAS",
    "ST_OK", "ST_ERROR", "ST_ACCESS", "ST_OOM", "ST_STALE",
    "HEADER", "REQ", "RESP",
    "READ_BODY", "WRITE_HDR", "CAS_BODY", "FAA_BODY", "WRITE_CAS_HDR",
    "U64",
    "RESEND_SAFE_OPS",
    "sockaddr", "request_frame", "response_frame", "pack_rpc", "unpack_rpc",
    "peek_rpc_name", "FrameDecoder", "read_frame",
]
