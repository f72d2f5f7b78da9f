"""Client-side frequency-counter cache (paper §4.2.2).

Inspired by processor write-combining: instead of issuing one RDMA_FAA per
access to bump an object's remote frequency counter, clients buffer deltas
locally and flush a combined FAA when

- the buffered delta reaches the threshold ``t`` (flush of that entry), or
- the cache is full (the entry inserted first is evicted).

This divides the RDMA_FAA rate by up to ``t`` — FAAs are the most expensive
verbs on real RNICs because of their internal atomics locks.  The paper's
``t`` is :data:`FC_THRESHOLD`; a client built with ``use_fc=False`` passes
1, which sends one FAA per access.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

#: (slot_address, delta) pairs the caller must apply with RDMA_FAA.
Flush = Tuple[int, int]

#: The paper's flush threshold t (§5.1).
FC_THRESHOLD = 10


class FrequencyCounterCache:
    """Write-combining buffer for remote frequency counters."""

    #: Bytes charged per entry besides the object ID: 8 B each for the
    #: address, the delta and an insert time (Fig 25's budget model; no
    #: time is stored).
    ENTRY_OVERHEAD = 24

    def __init__(
        self,
        capacity_bytes: int = 10 * 1024 * 1024,
        threshold: int = FC_THRESHOLD,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.capacity_bytes = capacity_bytes
        self.threshold = threshold
        # key -> [slot_addr, delta, entry_bytes]; insertion order is the
        # eviction order.
        self._entries: "OrderedDict[bytes, list]" = OrderedDict()
        self.used_bytes = 0
        self.combined = 0  # accesses absorbed without an immediate FAA

    def __len__(self) -> int:
        return len(self._entries)

    def _pop(self, key: bytes) -> Flush:
        entry = self._entries.pop(key)
        self.used_bytes -= entry[2]
        return entry[0], entry[1]

    def record(self, key: bytes, slot_addr: int) -> List[Flush]:
        """Absorb one access to ``key``; returns FAAs that must go out now."""
        flushes: List[Flush] = []
        entry = self._entries.get(key)
        if entry is not None:
            if entry[0] != slot_addr:
                # The object moved to a different slot: flush the stale delta.
                flushes.append(self._pop(key))
                entry = None
            else:
                entry[1] += 1
                self.combined += 1
                if entry[1] >= self.threshold:
                    flushes.append(self._pop(key))
        if entry is None:
            entry_bytes = len(key) + self.ENTRY_OVERHEAD
            if self.threshold == 1 or self.capacity_bytes < entry_bytes:
                # Degenerate configurations bypass buffering entirely.
                flushes.append((slot_addr, 1))
            else:
                self._entries[key] = [slot_addr, 1, entry_bytes]
                self.used_bytes += entry_bytes
                while self.used_bytes > self.capacity_bytes:
                    oldest = next(iter(self._entries))
                    flushes.append(self._pop(oldest))
        return flushes

    def flush_all(self) -> List[Flush]:
        """Drain every buffered delta (used at shutdown / in tests)."""
        flushes = [(e[0], e[1]) for e in self._entries.values()]
        self._entries.clear()
        self.used_bytes = 0
        return flushes
