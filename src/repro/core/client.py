"""The Ditto client: Get/Set/Delete over one-sided verbs (paper §4).

Each client thread in the compute pool owns a :class:`DittoClient`.  All
operations are generators driven by the simulation engine; they touch the
memory pool **only** through RDMA verbs, exactly as the paper's
client-centric framework requires:

- *Get*: one READ for the bucket, one READ for the object, then asynchronous
  metadata updates (a WRITE for the stateless timestamps, an FAA for ``freq``
  — usually absorbed by the frequency-counter cache).
- *Set*: bucket READ, then WRITE and CAS as one chain — the object WRITE
  into a freshly allocated block and the CAS on the slot's atomic field need
  each other's order, not each other's result, so they leave as one
  work-request chain (``write_then_cas``: two round trips booked on the
  simulator, one frame on a real link); the 32-byte metadata field follows
  with one WRITE.
- *Eviction*: one READ samples ``K`` consecutive slots of the
  sample-friendly hash table; every expert computes priorities locally; the
  victim of the weight-chosen expert is retired into an embedded history
  entry (FAA on the global history counter + CAS on the victim slot).
- *Regret collection* rides on the Get miss path: history entries in the
  already-fetched bucket are matched by key hash, ages checked against the
  cached history counter, and penalties buffered for the lazy weight update.

The ablation switches in :class:`~repro.core.config.DittoConfig` swap these
fast paths for their naive counterparts to reproduce Figure 24: access
information kept apart from the atomic words (two READs per sampled slot, two
WRITEs per metadata update), a history table outside the hash table (a WRITE
per eviction, a READ per miss), per-regret RPCs and no FC cache.  Every path
uses only the bytes its verbs bring back, so every config runs on both
substrates.
"""

from __future__ import annotations

import random
import struct
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..memory import ClientAllocator, OutOfMemoryError, StripedAllocator
from ..memory.allocator import MemoryBudget
from ..memory.node import BLOCK_SIZE
from ..obs.observer import current as obs_current
from ..rdma.verbs import (
    NodeUnavailable,
    RdmaFaultError,
    StaleEpoch,
)
from ..sim import CounterSet
from . import layout as L
from .elasticity import ACTIVE
from .retry import backoff_us
from .adaptive import ExpertWeights, bitmap_of
from .config import DittoConfig
from .fc_cache import FrequencyCounterCache
from .geometry import ClusterPlan
from .history import HISTORY_WRAP
from .policies import Metadata, live_hooks, make_policy, priority_column

_U64 = struct.Struct("<Q")

#: A declarable priority column's word within a slot (layout.py's table).
_COLUMN_WORD = {
    "insert_ts": L.INSERT_TS_OFF // 8,
    "last_ts": L.LAST_TS_OFF // 8,
    "freq": L.FREQ_OFF // 8,
}

#: Refresh the cached global history counter every this many misses.
COUNTER_REFRESH_PERIOD = 64

#: Jitter fraction: each fault-retry backoff is stretched by up to this much,
#: drawn from the client's deterministic RNG (decorrelates retry storms).
RETRY_JITTER = 0.5

#: Lease age (us on the substrate's clock) after which a half-installed slot
#: (its metadata write was lost) may be reclaimed by any reader.
REPAIR_LEASE_US = 1_000.0

#: What one attempt returns when it lost its CAS to a concurrent writer: the
#: attempt did nothing and the operation may be retried lock-free (§4.2).
_RACED = object()


class CacheOperationError(RuntimeError):
    """An operation failed permanently (retry budget or deadline exhausted).

    Carries the operation, key, and attempt context so a failed run is
    debuggable: ``op``/``key``/``reason``/``attempts``/``fault_attempts``/
    ``elapsed_us`` and the underlying fault in ``cause`` (if any).
    """

    def __init__(
        self,
        op: str,
        key: bytes,
        reason: str,
        attempts: int = 0,
        fault_attempts: int = 0,
        elapsed_us: float = 0.0,
        cause: Optional[BaseException] = None,
    ):
        self.op = op
        self.key = key
        self.reason = reason
        self.attempts = attempts
        self.fault_attempts = fault_attempts
        self.elapsed_us = elapsed_us
        self.cause = cause
        detail = f"{op}({key!r}) {reason} [attempts={attempts}"
        if fault_attempts:
            detail += f", fault_attempts={fault_attempts}"
        detail += f", elapsed={elapsed_us:.1f}us"
        if cause is not None:
            detail += f", cause={cause!r}"
        super().__init__(detail + "]")


def encode_ext(fields: Sequence[str], ext: Dict[str, float]) -> bytes:
    """Serialize extension metadata (8-byte float per declared field)."""
    return struct.pack(
        "<%dd" % len(fields), *(ext.get(name, 0.0) for name in fields)
    )


def decode_ext(fields: Sequence[str], raw: bytes) -> Dict[str, float]:
    values = struct.unpack_from("<%dd" % len(fields), raw)
    return dict(zip(fields, values))


class DittoClient:
    """One client thread of a Ditto deployment.

    ``cluster`` is a :class:`ClusterBase`: the config, geometry, budget,
    counters and hooks every substrate shares, plus its own engine, node
    handles and ``make_endpoint``.
    """

    def __init__(self, cluster, client_id: int, seed: int = 0):
        self.cluster = cluster
        self.client_id = client_id
        self.engine = cluster.engine
        self.layout = cluster.layout
        self.config = cluster.config
        self.budget = cluster.budget
        self.node = cluster.node
        self.rng = random.Random((seed * 1_000_003 + client_id) & 0xFFFFFFFF)
        self.counters = cluster.counters
        # Observability (repro.obs): tracer/histograms are None unless the
        # cluster was built under an active hub — the inert default.
        self.tracer = cluster.tracer
        obs = cluster.obs
        if obs is not None:
            self._hist_get = obs.registry.histogram(
                "op.latency", component="client", verb="get"
            )
            self._hist_set = obs.registry.histogram(
                "op.latency", component="client", verb="set"
            )
        else:
            self._hist_get = None
            self._hist_set = None
        # The substrate seam: the cluster decides whether verbs run against
        # the sim engine (RdmaEndpoint) or live processes (RealEndpoint).
        self.ep = cluster.make_endpoint(self)
        self.alloc = StripedAllocator(
            self.ep, cluster.nodes, cluster.segment_bytes, owner=client_id
        )
        #: Epoch of the client's cached membership view; refreshed via the
        #: ``get_membership`` RPC when a verb NACKs with StaleEpoch.
        self.membership_epoch = 0
        fence = cluster.fence
        if fence is not None:
            # Joining after the cluster's first membership change: arm the
            # fence and start from the current membership view.
            self.ep.fence = fence
            self.alloc.set_active(cluster.membership.active_ids())
            self.membership_epoch = cluster.membership.epoch
        self.policies = [make_policy(name) for name in self.config.policies]
        self._adaptive = self.config.adaptive
        self.ext_fields: Tuple[str, ...] = cluster.ext_fields
        self.ext_bytes = 8 * len(self.ext_fields)
        self._columns = cluster.columns
        self._updates, self._on_inserts, self._on_evicts = live_hooks(
            self.policies
        )
        self.weights = ExpertWeights(
            num_experts=len(self.policies),
            history_size=cluster.history_size,
            learning_rate=self.config.learning_rate,
            batch_size=self.config.weight_update_batch if self.config.use_lwu else 1,
            rng=self.rng,
        )
        self.fc = FrequencyCounterCache(
            capacity_bytes=self.config.fc_capacity_bytes,
            threshold=self.config.fc_threshold,
        )
        self._counter_cache = 0
        self._counter_fresh = False
        # -- fault tolerance ------------------------------------------------
        #: True once this client has been crashed by fault injection.
        self.dead = False
        #: Block allocated for the in-flight op but not yet linked into the
        #: table (or freed); reclaimed by crash recovery if we die here.
        self._pending_block: Optional[Tuple[int, int]] = None
        #: Budget consumed for the in-flight op but not yet committed.
        self._pending_budget = 0
        #: Lease repair is active only when the cluster injects faults: maps
        #: suspect slot addr -> (atomic value, first seen at).
        self._repair_enabled = cluster.fault_injector is not None
        self._suspects: Dict[int, Tuple[int, float]] = {}
        # -- statistics -----------------------------------------------------
        self.hits = 0
        self.misses = 0
        self.regrets = 0
        self.evictions = 0
        self.forced_bucket_evictions = 0
        #: Eviction samples that held no object (and were re-read).
        self.empty_samples = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _now(self) -> int:
        return int(self.engine._now)

    def _backoff_us(self, fault_attempt: int) -> float:
        """Exponential backoff with jitter for fault retry ``fault_attempt``
        (1-based).  Returns 0 when backoff is disabled."""
        return backoff_us(
            fault_attempt,
            base=self.config.retry_backoff_us,
            ceiling=self.config.retry_backoff_max_us,
            jitter=RETRY_JITTER,
            rng=self.rng,
        )

    def _refresh_membership(self) -> Generator:
        """Fetch the current membership table after a StaleEpoch NACK.

        One call to the metadata service on node 0; the striped allocator
        then stops placing fresh data on draining/retired nodes.  Reads are
        unaffected (they keep hitting the source copy until handoff), so
        refreshing only reroutes *writes* — the documented degraded mode of
        a drain.
        """
        epoch, entries = yield from self.ep.metadata(
            self.node, "get_membership"
        )
        self.alloc.set_active(
            [nid for nid, state in entries if state == ACTIVE]
        )
        self.membership_epoch = epoch
        self.counters.add("membership_refresh")
        if self.tracer is not None:
            self.tracer.instant(
                "membership.refresh", "client", {"epoch": epoch}
            )

    def _read_bucket(self, bucket: int) -> Generator:
        """Fetch all slots of a bucket (as a :class:`~repro.core.layout.Bucket`)
        with one READ, whatever the config: what the sample-friendly hash
        table saves is in sampling and in metadata updates, not here."""
        lay = self.layout
        addr = lay.bucket_addr(bucket)
        raw = yield from self.ep.read(addr, lay.slots_per_bucket * L.SLOT_SIZE)
        return L.Bucket(
            bucket * lay.slots_per_bucket, addr, raw, lay.slots_per_bucket
        )

    def _touch(self, key: bytes, slot: L.Slot, ext_raw: bytes) -> None:
        """Asynchronous metadata updates after a hit (off the critical path)."""
        now = self._now()
        self.ep.post_write(slot.addr + L.LAST_TS_OFF, _U64.pack(now))
        if not self.config.use_sfht:
            # Un-grouped access information: a second WRITE per update.
            self.ep.post_write(slot.addr + L.INSERT_TS_OFF, _U64.pack(slot.insert_ts))
        for addr, delta in self.fc.record(key, slot.addr + L.FREQ_OFF, self.engine._now):
            self.ep.post_faa(addr, delta)
        if self.ext_fields:
            meta = Metadata(
                slot.object_bytes, slot.insert_ts, slot.last_ts, slot.freq + 1,
                ext=decode_ext(self.ext_fields, ext_raw) if ext_raw else {},
            )
            for update in self._updates:
                update(meta, now)
            self.ep.post_write(
                slot.pointer + L.OBJECT_HEADER_SIZE,
                encode_ext(self.ext_fields, meta.ext),
            )

    # ------------------------------------------------------------------
    # The attempt loop
    # ------------------------------------------------------------------

    def _attempts(self, op: str, once, args: tuple, hist, degrade: bool) -> Generator:
        """Run ``once(*args)`` until it decides: the client's one retry loop.

        An attempt returns the operation's result, returns :data:`_RACED`
        (it lost a CAS), or raises.  Each way to fail has its own budget —
        the "op budgets" table of DESIGN §3.2 — and running out of any
        raises :class:`CacheOperationError`, or with ``degrade`` (Get)
        counts ``fault_miss_through`` and returns a miss.
        """
        config = self.config
        engine = self.engine
        tracer = self.tracer
        start = engine._now
        deadline = start + config.op_deadline_us if config.op_deadline_us > 0.0 else None
        attempts = cas_attempts = fault_attempts = stale_refreshes = 0
        reason = cause = None
        while True:
            attempts += 1
            fault = None
            try:
                result = yield from once(*args)
            except StaleEpoch as err:
                # A membership change fenced one of our verbs.  Refresh the
                # cached view so the allocator reroutes, bounded separately
                # from fault retries: churn is not packet loss.
                stale_refreshes += 1
                if stale_refreshes > config.epoch_retries:
                    reason, cause = "membership refresh budget exhausted", err
                    break
                self.counters.add("stale_epoch_retry")
                try:
                    yield from self._refresh_membership()
                except RdmaFaultError:
                    pass  # not charged: the next attempt fences again
            except OutOfMemoryError as err:
                # Structured failure from the controller's alloc_segment RPC:
                # reclaim space and retry rather than unwinding the run.
                self.counters.add("alloc_oom")
                try:
                    evicted = yield from self._evict_once()
                except RdmaFaultError as exc:
                    fault = exc  # a fault or a fence; the retry finds out
                else:
                    if not evicted:
                        reason = "memory nodes exhausted and nothing evictable"
                        cause = err
                        break
            except RdmaFaultError as err:
                if degrade and isinstance(err, NodeUnavailable):
                    # Down for a whole outage window: retrying within one
                    # op is pointless.
                    reason, cause = "memory node unavailable", err
                    break
                fault = err
            else:
                if result is not _RACED:
                    break
                cas_attempts += 1
                if cas_attempts >= config.max_retries:
                    reason = "exhausted retries (extreme contention)"
                    break
            if fault is not None:
                fault_attempts += 1
                if fault_attempts > config.fault_retries:
                    reason, cause = "fault retries exhausted", fault
                    break
                self.counters.add("fault_retry")
                if tracer is not None:
                    tracer.instant(
                        "op.retry", "client",
                        {"op": op, "attempt": fault_attempts},
                    )
                delay = self._backoff_us(fault_attempts)
                if delay > 0.0:
                    yield delay
            if deadline is not None and engine._now >= deadline:
                reason = f"op deadline ({config.op_deadline_us:.0f}us) exceeded"
                break
        if reason is not None:
            if not degrade:
                raise CacheOperationError(
                    op, args[0], reason, attempts=attempts,
                    fault_attempts=fault_attempts,
                    elapsed_us=engine._now - start, cause=cause,
                )
            self.counters.add("fault_miss_through")
            self.misses += 1
            result = None
        if tracer is not None:
            tracer.complete(
                "op." + op, "client", start,
                {"attempts": attempts, "hit": result not in (None, False),
                 "gave_up": reason},
            )
        if hist is not None:
            hist.record(engine._now - start)
        return result

    # ------------------------------------------------------------------
    # Get
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Generator:
        """Look up ``key``; returns the value bytes or None on a miss.

        Degrades instead of failing: an unreachable memory node or an
        exhausted budget (see :meth:`_attempts`) turns the lookup into a
        miss — the caller refills the cache from the backing store rather
        than aborting the run.
        """
        return self._attempts("get", self._get_once, (key,), self._hist_get, True)

    def _get_once(self, key: bytes) -> Generator:
        key_hash = L.stable_hash64(key)
        fp = L.fingerprint(key_hash)
        # ``_read_bucket`` and the lookup walk, inline: every verb resume
        # walks the whole ``yield from`` chain, and a generator frame more
        # under each Get's READs is measurable.
        lay = self.layout
        first = key_hash % lay.num_buckets * lay.slots_per_bucket
        base = lay.table_addr + first * L.SLOT_SIZE
        raw = yield from self.ep.read(base, lay.slots_per_bucket * L.SLOT_SIZE)
        slots = L.Bucket(first, base, raw, lay.slots_per_bucket)
        for i in slots.matches(fp):
            slot = slots.slot(i)
            raw = yield from self.ep.read(slot.pointer, slot.object_bytes)
            try:
                found_key, value, ext_raw = L.decode_object(raw)
            except (ValueError, struct.error):
                continue  # lost a race with a concurrent rewrite of the block
            if found_key == key:
                self._touch(key, slot, ext_raw)
                self.hits += 1
                return value
        if self._repair_enabled:
            yield from self._repair_suspects(slots)
        yield from self._handle_miss(slots, key_hash)
        self.misses += 1
        return None

    def _handle_miss(self, slots: L.Bucket, key_hash: int) -> Generator:
        """Regret collection on the miss path (paper §4.3.1).

        With LWH the key's history entries sit in the bucket already read;
        without, the miss READs the key's one entry of the history table.
        """
        if not self._adaptive:
            return
        if not self._counter_fresh or (self.misses % COUNTER_REFRESH_PERIOD) == 0:
            raw = yield from self.ep.read(self.layout.history_counter_addr, 8)
            self._counter_cache = _U64.unpack(raw)[0] % HISTORY_WRAP
            self._counter_fresh = True
        if not self.config.use_lwh:
            addr = self._history_entry_addr(key_hash)
            raw = yield from self.ep.read(addr, L.SLOT_SIZE)
            slots = L.Bucket(0, addr, raw, 1)
        for i in slots.histories(key_hash):
            slot = slots.slot(i)
            # ``history_age`` inline; past the history size, it expired.
            age = (self._counter_cache - slot.history_id) % HISTORY_WRAP
            if age > self.cluster.history_size:
                continue
            # Mask to the expert count: the bitmap write is asynchronous,
            # so a just-retired entry can briefly expose a stale word.
            mask = (1 << len(self.policies)) - 1
            yield from self._apply_regret(slot.expert_bitmap & mask, age)
            break

    def _history_entry_addr(self, key_hash: int) -> int:
        """``key_hash``'s entry in the LWH ablation's history table, which
        follows the hash table in node 0's reserve."""
        lay = self.layout
        index = key_hash % self.cluster.history_size
        return lay.table_addr + lay.table_bytes + index * L.SLOT_SIZE

    def _apply_regret(self, expert_bitmap: int, age: int) -> Generator:
        self.regrets += 1
        if self.weights.apply_regret(expert_bitmap, age):
            sums = self.weights.take_pending()
            # Node 0 folds the sums; a real node 0 journals the result, so
            # the learned weights survive its restart (DESIGN §3.6).
            new_weights = yield from self.ep.metadata(
                self.node, "update_weights", sums, size=8 * len(sums)
            )
            self.weights.set_weights(new_weights)

    # ------------------------------------------------------------------
    # Lease repair (fault injection only)
    # ------------------------------------------------------------------

    def _repair_suspects(self, slots: L.Bucket) -> Generator:
        """Reclaim half-installed slots whose metadata write was lost.

        A dropped unsignalled metadata WRITE leaves an object slot with
        ``key_hash == insert_ts == last_ts == 0``: the object exists but can
        never match a lookup by hash.  Any reader that sees such a slot with
        the *same* atomic word twice, ``REPAIR_LEASE_US`` apart, CASes it
        back to empty and returns the block.  Actively-used objects self-heal
        out of suspicion (a hit re-posts ``last_ts``), and a concurrent
        legitimate rewrite changes the atomic word, which resets the lease.
        """
        half_installed = slots.half_installed()
        if not half_installed and not self._suspects:
            return
        now = self.engine.now
        lease = REPAIR_LEASE_US
        for i in range(slots.count):
            if i not in half_installed:
                self._suspects.pop(slots.addr(i), None)
                continue
            slot = slots.slot(i)
            seen = self._suspects.get(slot.addr)
            if seen is None or seen[0] != slot.atomic:
                self._suspects[slot.addr] = (slot.atomic, now)
                continue
            if now - seen[1] < lease:
                continue
            old = yield from self.ep.cas(slot.addr, slot.atomic, 0)
            del self._suspects[slot.addr]
            if old != slot.atomic:
                continue  # lost the repair race (or the slot got rewritten)
            self.alloc.free(slot.pointer, slot.object_bytes)
            self.budget.release(slot.object_bytes)
            self.cluster.object_count -= 1
            self.counters.add("lease_repair")

    def repair_scan(self) -> Generator:
        """Scrub the whole hash table for abandoned half-installed slots.

        Crash recovery and chaos tests use this; regular traffic repairs
        opportunistically via the Get miss path.  Chunked READs keep verb
        sizes realistic.  Two passes ``REPAIR_LEASE_US`` apart are needed
        before anything is reclaimed (the lease must expire).
        """
        lay = self.layout
        chunk = 128
        index = 0
        while index < lay.total_slots:
            count = min(chunk, lay.total_slots - index)
            addr = lay.slot_addr(index)
            raw = yield from self.ep.read(addr, count * L.SLOT_SIZE)
            yield from self._repair_suspects(L.Bucket(index, addr, raw, count))
            index += count

    # ------------------------------------------------------------------
    # Set
    # ------------------------------------------------------------------

    def set(self, key: bytes, value: bytes) -> Generator:
        """Insert or update ``key``; evicts as needed to make room.

        Returns True, or raises :class:`CacheOperationError` once a budget
        of :meth:`_attempts` runs out.
        """
        return self._attempts(
            "set", self._try_set, (key, value), self._hist_set, False
        )

    def _initial_ext(self, size_bytes: int, now: int) -> bytes:
        if not self.ext_fields:
            return b""
        meta = Metadata(size=size_bytes, insert_ts=now, last_ts=now, freq=1)
        for on_insert in self._on_inserts:
            on_insert(meta, now)
        return encode_ext(self.ext_fields, meta.ext)

    def _try_set(self, key: bytes, value: bytes) -> Generator:
        """One Set attempt: True once installed, :data:`_RACED` on a lost CAS.

        An insert and an update are the same out-of-place sequence — size
        check, budget, block, then WRITE and CAS as one chain — and differ
        only in which word the CAS targets and in what happens to the block
        it replaced.
        """
        span = L.object_span(len(key), len(value), self.ext_bytes)
        blocks = ClientAllocator.blocks_for(span)
        block_bytes = blocks * BLOCK_SIZE
        if blocks > L.MAX_SIZE_BLOCKS:
            raise ValueError(f"object too large for the slot size field: {span}B")
        key_hash = L.stable_hash64(key)
        fp = L.fingerprint(key_hash)
        now = self._now()
        # ``_read_bucket``, inline, as in ``_get_once``.
        lay = self.layout
        first = key_hash % lay.num_buckets * lay.slots_per_bucket
        base = lay.table_addr + first * L.SLOT_SIZE
        raw = yield from self.ep.read(base, lay.slots_per_bucket * L.SLOT_SIZE)
        slots = L.Bucket(first, base, raw, lay.slots_per_bucket)

        # Is the key already cached?  The 64-bit key hash in the slot
        # metadata identifies it without fetching the object, keeping Sets
        # at the paper's three RTTs (READ, WRITE, CAS); a zero hash means
        # the insert's metadata write has not landed yet, so fall back to
        # reading the object.
        for i in slots.matches(fp):
            current = slots.slot(i)
            if current.key_hash == key_hash:
                break
            if current.key_hash == 0:
                current = yield from self._find((current,), key)
                if current is not None:
                    break
        else:
            current = None
        ext = b""
        if current is not None and self.ext_fields:
            ext = yield from self.ep.read(
                current.pointer + L.OBJECT_HEADER_SIZE, self.ext_bytes
            )

        # The budget consumption and the freshly allocated block are
        # recorded as *pending* until the CAS commits; there is no yield
        # between any verb resume and the matching bookkeeping, so the
        # markers exactly capture what a crash at any instant would leak and
        # crash recovery can undo them.  Hence ``except``, not ``finally``:
        # killing the process closes this generator, and a dead client must
        # keep its markers for ``recover_client``.
        yield from self._ensure_space(block_bytes)
        self._pending_budget = block_bytes
        try:
            addr = yield from self.alloc.alloc(span)
            self._pending_block = (addr, span)
            if current is None:
                ext = self._initial_ext(block_bytes, now)
            data = L.encode_object(key, value, ext)
            new_atomic = L.pack_atomic(addr, fp, blocks)
            if current is None:
                done = yield from self._claim_slot(
                    slots, addr, data, new_atomic, key_hash, now
                )
            else:
                old = yield from self.ep.write_then_cas(
                    addr, data, current.addr, current.atomic, new_atomic
                )
                done = old == current.atomic
        except (OutOfMemoryError, RdmaFaultError):
            self._roll_back()
            raise
        if not done:
            self._roll_back()
            return _RACED
        self._pending_block = None
        self._pending_budget = 0
        if current is not None:
            self.alloc.free(current.pointer, current.object_bytes)
            self.budget.release(current.object_bytes)
            self._touch(key, current, ext)
        return True

    def _roll_back(self) -> None:
        """Return the in-flight install's block (if it got one) and budget."""
        if self._pending_block is not None:
            self.alloc.free(*self._pending_block)
            self._pending_block = None
        self.budget.release(self._pending_budget)
        self._pending_budget = 0

    def _find(self, candidates, key: bytes) -> Generator:
        """The first of ``candidates`` (object slots) whose object holds
        ``key``, or None: one object READ each."""
        for slot in candidates:
            raw = yield from self.ep.read(slot.pointer, slot.object_bytes)
            try:
                found_key, _value, _ext = L.decode_object(raw)
            except (ValueError, struct.error):
                continue  # lost a race with a concurrent rewrite of the block
            if found_key == key:
                return slot
        return None

    def _claim_slot(
        self, slots: L.Bucket, addr: int, data: bytes, new_atomic: int,
        key_hash: int, now: int,
    ) -> Generator:
        """WRITE ``data`` to the block at ``addr`` and install ``new_atomic``
        into a free/expired/evictable bucket slot.

        The slot to claim is a pure function of the bucket already read, so
        WRITE and CAS leave as one chain.  When every slot holds a live
        object the victim is evicted within the bucket and replaced directly,
        its history entry skipped (there is nowhere to put it); rare with the
        default slot factor, and counted — and the victim is chosen between
        WRITE and CAS, where its clock reading and RNG draws always were.
        """
        position = slots.insert_position(self._counter_cache)
        evicted = None
        if position is not None:
            target = slots.slot(position)
            old = yield from self.ep.write_then_cas(
                addr, data, target.addr, target.atomic, new_atomic
            )
        else:
            yield from self.ep.write(addr, data)
            objects = slots.objects()
            if not objects:
                return False
            if self._columns is not None:
                target, _bitmap, evicted = self._column_victim(slots, objects)
            else:
                target, _bitmap, evicted = yield from self._choose_victim(
                    slots, objects
                )
            old = yield from self.ep.cas(target.addr, target.atomic, new_atomic)
        if old != target.atomic:
            return False
        if evicted is not None:
            self.forced_bucket_evictions += 1
            self._account_eviction(target, evicted, now)
        self.ep.post_write(
            target.addr + L.INSERT_TS_OFF, L.pack_metadata(now, now, 1, key_hash)
        )
        self.cluster.object_count += 1
        return True

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def _ensure_space(self, nbytes: int) -> Generator:
        consecutive_failures = 0
        while not self.budget.try_consume(nbytes):
            if nbytes > self.budget.limit_bytes:
                raise ValueError(f"object of {nbytes}B exceeds the cache budget")
            evicted = yield from self._evict_once()
            if evicted:
                consecutive_failures = 0
            else:
                consecutive_failures += 1
                if consecutive_failures > self.config.max_retries:
                    raise CacheOperationError(
                        "evict", b"", "cannot reclaim space (eviction storm)",
                        attempts=consecutive_failures,
                    )

    def _sample_slots(self) -> Generator:
        """Sample ``K`` slots for eviction.

        SFHT: one READ of K *consecutive* slots at a random offset.  Without
        SFHT: K scattered slots, each built from a READ of its atomic field
        and a READ of its metadata (the cost the co-designed table removes).
        """
        lay = self.layout
        k = min(self.config.sample_size, lay.total_slots)
        if self.config.use_sfht:
            start = self.rng.randrange(lay.total_slots - k + 1)
            addr = lay.slot_addr(start)
            raw = yield from self.ep.read(addr, k * L.SLOT_SIZE)
            return L.Bucket(start, addr, raw, k)
        indices, raws = [], []
        for _ in range(k):
            index = self.rng.randrange(lay.total_slots)
            addr = lay.slot_addr(index)
            raws.append((yield from self.ep.read(addr, 8)))  # atomic field
            raws.append((yield from self.ep.read(addr + 8, L.SLOT_SIZE - 8)))
            indices.append(index)
        return L.Bucket(0, lay.table_addr, b"".join(raws), k, indices)

    def _choose_victim(self, slots: L.Bucket, objects: List[int]) -> Generator:
        """Run every expert's priority function over the object slots at
        positions ``objects``; pick by expert weights.

        Returns (victim_slot, expert_bitmap, victim_metadata).
        """
        now = self._now()
        metas: List[Metadata] = []
        for i in objects:
            ext = {}
            if self.ext_fields:
                # Extension metadata is stored ahead of the object (§4.4).
                raw = yield from self.ep.read(
                    slots.slot(i).pointer + L.OBJECT_HEADER_SIZE, self.ext_bytes
                )
                ext = decode_ext(self.ext_fields, raw)
            metas.append(Metadata(*slots.access_info(i), ext=ext))
        # Each expert's candidate is its *first* lowest-priority object, as
        # ``min`` picks it, found by index into ``metas``.
        candidates = []
        for policy in self.policies:
            priority = policy.priority
            best, lowest = 0, priority(metas[0], now)
            for j in range(1, len(metas)):
                value = priority(metas[j], now)
                if value < lowest:
                    best, lowest = j, value
            candidates.append(best)
        victim = candidates[self.weights.choose() if self._adaptive else 0]
        bitmap = bitmap_of(candidates, victim)
        return slots.slot(objects[victim]), bitmap, metas[victim]

    def _column_victim(self, slots: L.Bucket, objects: List[int]):
        """:meth:`_choose_victim` for experts that all declare a priority
        column: each expert's first minimum is found on its column of the
        sample, read with one strided unpack, and only the victim's
        :class:`~repro.core.layout.Slot` and :class:`Metadata` are built.
        Reads no verb, so it is no generator.
        """
        candidates = []
        for word, pick in self._columns:
            candidates.append(pick(objects, key=slots.column(word).__getitem__))
        victim = candidates[self.weights.choose() if self._adaptive else 0]
        return (
            slots.slot(victim),
            bitmap_of(candidates, victim),
            Metadata(*slots.access_info(victim)),
        )

    def _evict_once(self) -> Generator:
        """One sampled eviction; True on success."""
        tracer = self.tracer
        t0 = self.engine._now if tracer is not None else 0.0
        evicted = False
        for _attempt in range(self.config.max_retries):
            slots = yield from self._sample_slots()
            objects = slots.objects()
            if not objects:
                self.empty_samples += 1
                continue
            if self._columns is not None:
                victim, bitmap, meta = self._column_victim(slots, objects)
            else:
                victim, bitmap, meta = yield from self._choose_victim(
                    slots, objects
                )
            evicted = yield from self._retire(victim, bitmap, meta)
            if evicted:
                break
        if tracer is not None:
            tracer.complete("op.evict", "client", t0, {"evicted": evicted})
        return evicted

    def _retire(self, victim: L.Slot, bitmap: int, meta: Metadata) -> Generator:
        """Record the victim in the history and free its block.

        Either way the entry's ID comes from an FAA on the history counter.
        With LWH the victim's slot becomes the entry; without, the entry is
        written to the history table and the slot CASed empty.
        """
        now = self._now()
        old_counter = yield from self.ep.faa(self.layout.history_counter_addr, 1)
        self._counter_cache = (old_counter + 1) % HISTORY_WRAP
        self._counter_fresh = True
        history_id = old_counter % HISTORY_WRAP
        if self.config.use_lwh:
            new_atomic = L.pack_history_atomic(history_id)
            prev = yield from self.ep.cas(victim.addr, victim.atomic, new_atomic)
            if prev != victim.atomic:
                return False
            # Expert bitmap rides in the insert_ts word; the key hash already
            # sits in the slot's hash field from insertion time (Fig. 9).
            self.ep.post_write(victim.addr + L.INSERT_TS_OFF, _U64.pack(bitmap))
        else:
            yield from self.ep.write(
                self._history_entry_addr(victim.key_hash),
                L.pack_history_entry(history_id, bitmap, victim.key_hash),
            )
            prev = yield from self.ep.cas(victim.addr, victim.atomic, 0)
            if prev != victim.atomic:
                return False
        self._account_eviction(victim, meta, now)
        return True

    def _account_eviction(self, victim: L.Slot, meta: Metadata, now: int) -> None:
        self.alloc.free(victim.pointer, victim.object_bytes)
        self.budget.release(victim.object_bytes)
        self.cluster.object_count -= 1
        self.evictions += 1
        for on_evict in self._on_evicts:
            on_evict(meta, now)

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------

    def delete(self, key: bytes) -> Generator:
        """Remove ``key``; returns True if it was cached."""
        return self._attempts("delete", self._delete_once, (key,), None, False)

    def _delete_once(self, key: bytes) -> Generator:
        """One Delete attempt: True/False on a decision, :data:`_RACED` on a
        lost CAS."""
        key_hash = L.stable_hash64(key)
        slots = yield from self._read_bucket(self.layout.bucket_index(key_hash))
        match = yield from self._find(
            map(slots.slot, slots.matches(L.fingerprint(key_hash))), key
        )
        if match is None:
            return False
        old = yield from self.ep.cas(match.addr, match.atomic, 0)
        if old != match.atomic:
            return _RACED
        self.alloc.free(match.pointer, match.object_bytes)
        self.budget.release(match.object_bytes)
        self.cluster.object_count -= 1
        return True


class ClusterBase:
    """Everything a :class:`DittoClient` reads from the deployment it joins.

    :class:`~repro.core.cache.DittoCluster` (the simulator) and
    :class:`~repro.runtime.cluster.RealCluster` (live memory-node
    processes) inherit it and add only their substrate: the engine or
    runtime, the node handles, ``make_endpoint``, and the clock row of
    :meth:`stats` (DESIGN §3.7).
    """

    #: Sim-only hooks, None where a substrate has none: the engine-bound
    #: tracer, the membership table and epoch fence (armed by the first
    #: membership change) and the fault injector (it arms lease repair on
    #: the Get miss path).
    tracer = None
    membership = None
    fence = None
    fault_injector = None
    #: Node drains in flight: their allocators count in the memory sweep.
    _active_migrators: Sequence = ()

    def __init__(self, config: DittoConfig, seed: int, plan: ClusterPlan,
                 obs=None):
        """``obs`` is the observability hub, by default the process's
        (None when none is armed: clients bind no histograms)."""
        self.config = config
        self.seed = seed
        self.layout = plan.layout
        self.ext_fields: Tuple[str, ...] = plan.ext_fields
        #: Per expert, the slot word of its declared priority column and
        #: ``min`` (sign 1) or ``max`` (sign -1), when every expert declares
        #: one and no extension field is stored: clients then choose victims
        #: from the sample's words (:meth:`DittoClient._column_victim`).
        columns = [priority_column(make_policy(name)) for name in config.policies]
        self.columns: Optional[Tuple[Tuple[int, Callable], ...]] = None
        if not self.ext_fields and None not in columns:
            self.columns = tuple(
                (_COLUMN_WORD[f], min if sign > 0 else max) for f, sign in columns
            )
        self.history_size = plan.history_size
        self.segment_bytes = plan.segment_bytes
        self.block_bytes_per_object = plan.block_bytes_per_object
        self.max_capacity_objects = plan.max_capacity_objects
        self.budget = MemoryBudget(plan.budget_bytes)
        self.obs = obs if obs is not None else obs_current()
        self.counters = CounterSet()
        self.object_count = 0
        self.clients: List[DittoClient] = []
        # Client ids are monotonic so a departed client's id (and its grant
        # log at the controllers) is never silently reused by a newcomer.
        self._next_client_id = 0

    def add_clients(self, n: int) -> List[DittoClient]:
        """Scale compute: ``n`` clients join, each with its own endpoint,
        and no data moves."""
        new = []
        for _ in range(n):
            client = DittoClient(
                self, client_id=self._next_client_id, seed=self.seed
            )
            self._next_client_id += 1
            new.append(client)
        self.clients.extend(new)
        return new

    # -- aggregated statistics ----------------------------------------------

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self.clients)

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self.clients)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _clock_stats(self) -> Dict[str, float]:
        """The substrate's clock row(s) of :meth:`stats`."""
        raise NotImplementedError

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "objects": self.object_count,
            "evictions": sum(c.evictions for c in self.clients),
            "regrets": sum(c.regrets for c in self.clients),
            "empty_samples": sum(c.empty_samples for c in self.clients),
            "used_bytes": self.budget.used_bytes,
            "limit_bytes": self.budget.limit_bytes,
            **self._clock_stats(),
            **{k: float(v) for k, v in self.counters.as_dict().items()},
        }
