"""Durable grant journal: segment-management state that survives SIGKILL.

The real-substrate memory node keeps its heap in a POSIX shared-memory
segment (:class:`ShmSegment`), so the *data* plane already
survives a server crash — but the control plane
(:class:`~repro.memory.controller.SegmentState`: bump pointer, free
lists, the per-owner grant log) lived only in the process.  A crashed
node would come back with its heap intact and no idea which bytes it had
granted, making the memory-accounting sweep (and crash-recovery grant
reconciliation) impossible.

The journal fixes that by appending a small write-through log to the
tail of the same shared-memory segment, past the byte range clients can
address::

    [0, size)                 the node's heap (client-addressable)
    [size, size + JOURNAL)    header, the weight slots, then fixed
                              32-byte grant entries

One entry per granted segment: ``(addr u64, size u64, owner i64,
token u64)``.  Entries are written by the single-threaded server with
``size`` stored *last*, so a SIGKILL at any instant leaves either a
complete entry or one with ``size == 0`` that rebuild ignores; the
header's ``count``/``next_free`` words are updated after the entry, and
rebuild takes ``max(header.next_free, max entry end)`` so a crash
between the stores never loses or double-grants a byte (at worst one
*unacknowledged* grant's address range is leaked until the segment is
unlinked).  A freed segment flips its entry's owner to
:data:`FREE_OWNER` in place (one 8-byte store); reuse of a freed range
rewrites token then owner.

``token`` persists the RPC dedup token of the alloc (see
:mod:`repro.runtime.wire`), so a client resending ``alloc_segment``
across a server crash/restart gets its original grant back instead of a
duplicate.

Node 0 also journals the global expert weights, written through on every
fold: two slots of :data:`MAX_EXPERTS` doubles, written alternately, and
one selector word ``(count << 32) | generation`` stored after the slot, so
a SIGKILL mid-write leaves the previous vector whole.  A restart with
``--adopt`` resumes from the learned weights instead of uniform ones.
"""

from __future__ import annotations

import mmap
import os
import struct
from typing import Callable, Dict, List, Optional, Tuple

from ..memory.controller import OutOfMemoryError, SegmentState, _round_up
from ..memory.node import BLOCK_SIZE

#: Where POSIX shared memory lives: ``shm_open(name)`` is this directory's
#: ``name`` on Linux, the only platform the runtime's abstract AF_UNIX
#: addresses exist on.
SHM_DIR = "/dev/shm"


class ShmSegment:
    """A ``ditto-*`` heap: one POSIX shared-memory segment, mapped.

    Ownership is explicit and nobody else's: the node server that creates
    the segment unlinks it on a clean shutdown, a SIGKILL leaves it for an
    ``--adopt`` restart, and the harness unlinks any survivor at teardown.
    ``multiprocessing.shared_memory`` would register every segment it
    creates or attaches with a resource tracker, one more interpreter per
    process whose exit sweep unlinks what it saw, a live heap included.
    A plain file under :data:`SHM_DIR` and ``mmap`` start no process.

    ``size`` (bytes) creates a fresh segment, failing if the name exists;
    without it the surviving segment is attached whole, read-only unless
    ``writable``.
    """

    __slots__ = ("name", "size", "buf", "_map")

    def __init__(self, name: str, size: Optional[int] = None,
                 writable: bool = True):
        path = os.path.join(SHM_DIR, name)
        create = size is not None
        if create:
            flags = os.O_RDWR | os.O_CREAT | os.O_EXCL
        else:
            flags = os.O_RDWR if writable else os.O_RDONLY
        fd = os.open(path, flags, 0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            else:
                size = os.fstat(fd).st_size
            access = mmap.ACCESS_WRITE if writable else mmap.ACCESS_READ
            self._map = mmap.mmap(fd, size, access=access)
        except BaseException:
            if create:
                os.unlink(path)
            raise
        finally:
            os.close(fd)
        self.name = name
        self.size = size
        self.buf = memoryview(self._map)

    def close(self) -> None:
        """Unmap; views taken from ``buf`` must be released first."""
        self.buf.release()
        self._map.close()

    def unlink(self) -> None:
        os.unlink(os.path.join(SHM_DIR, self.name))


MAGIC = 0x4449_5454_4F4A_4E4C  # "DITTOJNL"
VERSION = 2

HEADER = struct.Struct("<QQQQ")          # magic, version|capacity, count, next_free
ENTRY = struct.Struct("<QQqQ")           # addr, size, owner, token
ENTRY_SIZE = ENTRY.size

#: Weight-vector length a journal holds: an expert bitmap is one 64-bit word.
MAX_EXPERTS = 64
WEIGHT_SLOT = 8 * MAX_EXPERTS
#: The selector word, then two weight slots, between header and entries.
WEIGHTS_OFF = HEADER.size
ENTRIES_OFF = WEIGHTS_OFF + 8 + 2 * WEIGHT_SLOT

#: Entries this many grants can be journalled per node; segment grants are
#: coarse (256 KiB default), so 4096 covers heaps far larger than any test
#: or CI deployment.  A full journal surfaces as OutOfMemoryError.
DEFAULT_CAPACITY = 4096

#: Owner sentinel marking a freed (recyclable) segment entry.
FREE_OWNER = -(1 << 40)


def journal_bytes(capacity: int = DEFAULT_CAPACITY) -> int:
    """Shared-memory bytes to reserve past the heap for the journal."""
    return ENTRIES_OFF + capacity * ENTRY_SIZE


class GrantJournal:
    """The on-shm log itself: fixed entries over a writable memoryview."""

    def __init__(self, buf: memoryview, capacity: int = DEFAULT_CAPACITY):
        if len(buf) < journal_bytes(capacity):
            raise ValueError(
                f"journal buffer holds {len(buf)} bytes, need "
                f"{journal_bytes(capacity)}"
            )
        self._buf = buf
        self.capacity = capacity
        self.count = 0
        #: addr -> entry index, for in-place free/reuse/reassign updates.
        self._index: Dict[int, int] = {}
        #: Optional observability hook, invoked once per journalled
        #: mutation (alloc/free/reassign/weights).  None when obs is disarmed —
        #: the write path then pays a single attribute test.
        self.on_record: Optional[Callable[[], None]] = None

    # -- raw field stores (each a single aligned 8-byte write) -------------

    def _entry_off(self, index: int) -> int:
        return ENTRIES_OFF + index * ENTRY_SIZE

    def _store_u64(self, off: int, value: int) -> None:
        self._buf[off : off + 8] = struct.pack("<Q", value)

    def _store_i64(self, off: int, value: int) -> None:
        self._buf[off : off + 8] = struct.pack("<q", value)

    def _entry(self, index: int) -> Tuple[int, int, int, int]:
        off = self._entry_off(index)
        return ENTRY.unpack_from(self._buf, off)

    # -- lifecycle ----------------------------------------------------------

    def initialize(self, next_free: int) -> None:
        """Format a fresh journal (zero entries)."""
        self._buf[: journal_bytes(self.capacity)] = bytes(
            journal_bytes(self.capacity)
        )
        self._store_u64(0, MAGIC)
        self._store_u64(8, (VERSION << 32) | self.capacity)
        self._store_u64(16, 0)
        self._store_u64(24, next_free)
        self.count = 0
        self._index = {}

    @classmethod
    def attach(cls, buf: memoryview) -> "GrantJournal":
        """Bind to an existing journal; raises ValueError on a bad header."""
        magic, vercap, count, _next_free = HEADER.unpack_from(buf, 0)
        if magic != MAGIC:
            raise ValueError(
                f"no grant journal at this offset (magic {magic:#x})"
            )
        version, capacity = vercap >> 32, vercap & 0xFFFFFFFF
        if version != VERSION:
            raise ValueError(f"grant journal version {version} != {VERSION}")
        journal = cls(buf, capacity)
        journal.count = count
        for index in range(count):
            addr, size, _owner, _token = journal._entry(index)
            if size != 0:
                journal._index[addr] = index
        return journal

    @property
    def next_free(self) -> int:
        return HEADER.unpack_from(self._buf, 0)[3]

    # -- mutations (write-through; called by DurableSegmentState) ----------

    def record_alloc(self, addr: int, size: int, owner: int,
                     token: int, next_free: int) -> None:
        if self.on_record is not None:
            self.on_record()
        index = self._index.get(addr)
        if index is not None:
            # Reuse of a freed range: same addr/size, new owner + token.
            off = self._entry_off(index)
            self._store_u64(off + 24, token)
            self._store_i64(off + 16, owner)
            return
        if self.count >= self.capacity:
            raise OutOfMemoryError(
                f"grant journal full ({self.capacity} entries)"
            )
        index = self.count
        off = self._entry_off(index)
        self._store_u64(off, addr)
        self._store_i64(off + 16, owner)
        self._store_u64(off + 24, token)
        self._store_u64(off + 8, size)        # size last: validity gate
        self._store_u64(24, next_free)
        self._store_u64(16, index + 1)        # count last: publish the entry
        self.count = index + 1
        self._index[addr] = index

    def record_free(self, addr: int) -> None:
        if self.on_record is not None:
            self.on_record()
        index = self._index.get(addr)
        if index is None:
            return
        self._store_i64(self._entry_off(index) + 16, FREE_OWNER)

    def record_weights(self, weights) -> None:
        """Write ``weights`` to the idle slot, then flip the selector."""
        if self.on_record is not None:
            self.on_record()
        if len(weights) > MAX_EXPERTS:
            raise ValueError(f"{len(weights)} weights, journal holds {MAX_EXPERTS}")
        generation = (self._selector() & 0xFFFFFFFF) + 1
        off = WEIGHTS_OFF + 8 + (generation & 1) * WEIGHT_SLOT
        struct.pack_into(f"<{len(weights)}d", self._buf, off, *weights)
        self._store_u64(WEIGHTS_OFF, (len(weights) << 32) | generation)

    def _selector(self) -> int:
        return struct.unpack_from("<Q", self._buf, WEIGHTS_OFF)[0]

    def weights(self) -> Optional[List[float]]:
        """The last journalled weight vector, or None if none was."""
        selector = self._selector()
        count, generation = selector >> 32, selector & 0xFFFFFFFF
        if not generation:
            return None
        off = WEIGHTS_OFF + 8 + (generation & 1) * WEIGHT_SLOT
        return list(struct.unpack_from(f"<{count}d", self._buf, off))

    def record_reassign(self, from_owner: int, to_owner: int) -> None:
        if self.on_record is not None:
            self.on_record()
        for index in range(self.count):
            off = self._entry_off(index)
            _addr, size, owner, _token = self._entry(index)
            if size != 0 and owner == from_owner:
                self._store_i64(off + 16, to_owner)

    # -- rebuild ------------------------------------------------------------

    def entries(self):
        for index in range(self.count):
            addr, size, owner, token = self._entry(index)
            if size != 0:
                yield addr, size, owner, token


class DurableSegmentState(SegmentState):
    """A :class:`SegmentState` mirrored write-through into a grant journal.

    The in-memory state stays authoritative on the serving path (same
    code, same complexity); every state change additionally lands in the
    journal before the RPC response is sent, so :meth:`adopt` can rebuild
    an equivalent state machine from the surviving shared memory after a
    SIGKILL.
    """

    __slots__ = ("journal", "token_grants")

    def __init__(self, node_id: int, start: int, end: int,
                 journal: GrantJournal, fresh: bool = True):
        super().__init__(node_id, start, end)
        self.journal = journal
        #: Durable alloc dedup: token -> granted address.
        self.token_grants: Dict[int, int] = {}
        if fresh:
            journal.initialize(start)

    @classmethod
    def adopt(cls, node_id: int, start: int, end: int,
              buf: memoryview) -> "DurableSegmentState":
        """Rebuild from a surviving journal (crash/restart adoption)."""
        journal = GrantJournal.attach(buf)
        state = cls(node_id, start, end, journal, fresh=False)
        high_water = journal.next_free
        for addr, size, owner, token in journal.entries():
            high_water = max(high_water, addr + size)
            if owner == FREE_OWNER:
                state.free_segments.setdefault(size, []).append(addr)
            else:
                state.grants.setdefault(owner, []).append((addr, size))
                if token:
                    state.token_grants[token] = addr
        state.next_free = high_water
        return state

    # -- journalled commands ------------------------------------------------

    def alloc(self, size: int, owner: int, token: int = 0) -> int:
        if token:
            addr = self.token_grants.get(token)
            if addr is not None:
                return addr  # resent alloc: hand back the original grant
        rounded = _round_up(size, BLOCK_SIZE)
        addr = super().alloc(size, owner)
        self.journal.record_alloc(addr, rounded, owner, token, self.next_free)
        if token:
            self.token_grants[token] = addr
        return addr

    def free(self, addr: int, size: int) -> None:
        super().free(addr, size)
        self.journal.record_free(addr)

    def reassign(self, from_owner: int, to_owner: int) -> int:
        moved = super().reassign(from_owner, to_owner)
        if moved:
            self.journal.record_reassign(from_owner, to_owner)
        return moved


__all__ = [
    "DEFAULT_CAPACITY",
    "DurableSegmentState",
    "FREE_OWNER",
    "GrantJournal",
    "journal_bytes",
    "SHM_DIR",
    "ShmSegment",
]
