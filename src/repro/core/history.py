"""The logical FIFO queue of the lightweight eviction history (paper §4.3.1).

History entries live *inside* hash-table slots (see ``layout``); ordering and
expiry come from 48-bit history IDs handed out by a global circular counter in
the memory pool.  The counter is the queue tail; an entry whose ID has fallen
more than the history size behind the counter is logically evicted — it keeps
occupying its slot until an insert overwrites it (lazy eviction).

Without LWH (the Figure 24 ablation) the entries keep the same 40-byte slot
format but leave the hash table for a direct-mapped table of
``history_size`` entries after it in node 0's reserve: a key's entry sits at
``key_hash % history_size``, so every eviction WRITEs one and every miss
READs one, and a later eviction that maps to the same entry overwrites it.
"""

from __future__ import annotations

HISTORY_ID_BITS = 48
HISTORY_WRAP = 1 << HISTORY_ID_BITS


def history_age(counter: int, history_id: int) -> int:
    """Entries behind the tail counter, accounting for 48-bit wrap-around."""
    return (counter - history_id) % HISTORY_WRAP


def is_expired(counter: int, history_id: int, history_size: int) -> bool:
    """Client-side expiration check (paper's v1/v2/l rule, wrap included)."""
    return history_age(counter, history_id) > history_size


HISTORY_ENTRY_BYTES = 40
