"""Vectorized trace replay for :class:`SampledAdaptiveCache` (the "brawn").

The cachesim tier splits along the brain/brawn line (DESIGN §3.5): policy
semantics, adaptivity, and history live in readable scalar Python
(``simulator.py`` — the brain), while this module re-implements the replay
loop itself with columnar metadata and block-drawn randomness (the brawn).
The split is only sound because the two paths are **byte-identical**: same
rng draws in the same order, same eviction victims, same history/regret
sequence, same final metadata.  Identity is regression-tested (property
tests over random traces plus full-experiment comparisons), and
``REPRO_VECTORIZE=0`` forces the scalar replay.

How the speed happens:

- **Columnar metadata.**  ``Metadata`` objects are exploded once into
  parallel lists (key, freq, last_ts, insert_ts) indexed by store slot, with
  a dense ``pos_of`` table mapping key → slot (-1 when absent).  The hit
  path is then two list writes; no dict hashing, no attribute access.
- **Slots reused in place.**  The columns are sized once to the most the
  store holds and trimmed at exit.  An eviction copies the last slot into
  the victim's (the scalar ``_remove_key``) and the insert writes the last
  slot: a miss appends and pops nothing.
- **Block-drawn rng.**  The scalar path draws uniforms one at a time from
  ``random.Random`` (MT19937).  numpy's ``RandomState`` is the *same*
  generator, so the replay transplants the MT19937 state into numpy, draws
  uniforms in blocks of :data:`BLOCK` (bit-identical to sequential
  ``rng.random()`` calls), precomputes the slot index each draw would select
  at full capacity, and transplants the advanced state back at exit (the
  scalar path sees nothing).
- **Floats only where consumed.**  The raw uniforms of a block are kept as
  Python floats only for two experts (``choose`` reads one per eviction)
  or for a store that entered over-full after a shrinking ``resize`` (it
  samples from ``n`` slots, not ``capacity``); otherwise a refill converts
  only the slot indices.
- **Unrolled candidate scans.**  Every configuration whose priorities are
  minimized columns (LRU, LFU, FIFO) at the default sample size of 5 scans
  its candidates in one unrolled block: a dual scan for an expert pair, a
  single scan over its one column for one expert.  Other sample sizes and
  MRU take the generic ``_argbest`` loop.
- **Dense history.**  Two experts hold the eviction history in a list
  indexed by key (-1 when absent) beside ``pos_of``, sized by the trace's,
  the store's and the history's keys, and keep the weights and penalty sums
  in locals.  ``cache._history`` is rebuilt from the FIFO at exit, in
  O(history_size): each key in the FIFO window holds its latest entry.
- **Inlined adaptivity.**  For the dominant two-expert configuration the
  regret update (penalize → clip → normalize) and the proportional expert
  choice are inlined float math, verified identical to
  ``ExpertWeights.apply_regret``/``choose``.
- **Chunked decode.**  Keys become Python ints one fixed chunk at a time
  (:func:`repro.cachesim.decode.chunks`), never as one whole-trace list,
  so replay memory is bounded by the chunk and the cache, not the trace
  length; tick, draws and counters carry across chunks unchanged.
- **No history without regret.**  Only two experts collect regret, so a
  single-expert replay records no eviction history, like the scalar path.

Eligibility is conservative: integer keys (trace, resident and history)
in a bounded range, policies that all declare a ``column``
(:func:`repro.core.policies.priority_column`: a priority that is one signed
metadata field, as LRU, LFU, FIFO and MRU declare — the same declaration
the byte-level client's victim choice reads), no live policy hooks, and one
or two experts.  Anything else silently replays scalar.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from ..core.adaptive import WEIGHT_FLOOR
from ..core.policies import Metadata, priority_column
from .decode import chunks

#: Batches below this size replay scalar: the fixed setup cost (columnar
#: encode, rng mirror, store rebuild) dominates under ~1k accesses.
MIN_BATCH = 1024

#: Keys (trace and resident) must be non-negative ints below this bound so
#: the dense key → slot table stays small.
MAX_KEY = 1 << 22

#: Uniform draws are pre-drawn in blocks of this many.
BLOCK = 8192

#: Position of each declarable ``Metadata`` field among the replay's columns
#: (``cols`` in :func:`replay`).
_COLUMN_INDEX = {"freq": 0, "last_ts": 1, "insert_ts": 2}


def eligible(cache, keys: np.ndarray) -> bool:
    """Whether ``replay`` can run this batch byte-identically."""
    if os.environ.get("REPRO_VECTORIZE") == "0":
        return False
    if keys.ndim != 1 or keys.dtype.kind not in "iu" or keys.size == 0:
        return False
    policies = cache.policies
    for policy in policies:
        if priority_column(policy) is None:
            return False
    if cache._live_updates or cache._live_on_inserts or cache._live_on_evicts:
        return False
    if not 1 <= cache.sample_size <= 1024:
        return False
    weights = cache.weights
    if len(policies) == 2:
        # Two experts: proportional choice + regret math are inlined, and
        # the choice draws must come from the cache's own rng stream.
        if weights.num_experts != 2:
            return False
        if weights._rng is not cache.rng:
            return False
    elif len(policies) != 1:
        return False
    if cache.rng.getstate()[0] != 3:  # not MT19937 internal version 3
        return False
    if int(keys.min()) < 0 or int(keys.max()) >= MAX_KEY:
        return False
    # Resident keys index pos_of and history keys the dense history.
    for key in itertools.chain(cache._keys, cache._history):
        if type(key) is not int or key < 0 or key >= MAX_KEY:
            return False
    return True


def replay(cache, keys: np.ndarray) -> int:
    """Replay ``keys`` through ``cache``; returns hits added.

    Byte-identical to the scalar ``access_many`` loop (callers dispatch here
    only after :func:`eligible`).
    """
    ss = cache.sample_size
    cap = cache.capacity
    hsize = cache.history_size
    weights = cache.weights
    two = cache.adaptive
    lr = weights.learning_rate
    disc = weights.discount
    exp = math.exp
    shift = cache._hist_shift
    floor = WEIGHT_FLOOR

    field0, sign0 = priority_column(cache.policies[0])
    if two:
        field1, sign1 = priority_column(cache.policies[1])
    else:
        field1, sign1 = field0, sign0
    # Minimized columns at the default sample size take an unrolled scan
    # below (a dual one for two experts, a single one for one) whenever the
    # store is full and larger than the sample.
    hot = ss == 5 and cap > ss and sign0 == 1 and sign1 == 1

    # -- columnar encode ---------------------------------------------------
    # Slot order must mirror the scalar _keys list.  The columns are sized
    # once to the most the store ever holds (it only shrinks towards
    # ``cap`` when it enters over-full) and trimmed at exit.
    orig = cache._store
    hist = cache._history
    old_keys = cache._keys
    n = len(old_keys)
    top = max(int(keys.max()), max(old_keys, default=0),
              max(hist, default=0)) + 1
    pos_of = [-1] * top
    for p, key in enumerate(old_keys):
        pos_of[key] = p
    metas = [orig[key] for key in old_keys]
    pad = [0] * (max(n, cap) - n)
    keyid_col = old_keys + pad
    freq_col = [meta.freq for meta in metas] + pad
    last_col = [meta.last_ts for meta in metas] + pad
    ins_col = [meta.insert_ts for meta in metas] + pad
    cols = (freq_col, last_col, ins_col)
    pri0 = cols[_COLUMN_INDEX[field0]]
    pri1 = cols[_COLUMN_INDEX[field1]]

    # -- rng mirror --------------------------------------------------------
    entry_state = cache.rng.getstate()
    internal = entry_state[1]
    mirror = np.random.RandomState()
    mirror.set_state(
        ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
    )
    # Raw uniforms are read only by two experts' choose() and by sampling
    # an over-full store (which only an earlier shrinking resize leaves).
    floats = two or n > cap
    fl_block: list = []  # raw uniforms, kept only when ``floats``
    idx_block: list = []  # min(int(u * cap), cap - 1), precomputed per block
    cur = 0
    blk_len = 0
    drawn = 0
    reserve = ss + 1  # max draws one eviction can consume

    # History (two experts only): a dense key -> packed entry column, -1
    # when absent, in place of the dict; the dict is rebuilt at exit.  The
    # weights and penalty sums live in locals until exit too.
    fifo = cache._history_fifo
    hctr = cache._history_counter
    base = cache._history_base
    if two:
        hcol = [-1] * top
        for key, entry in hist.items():
            hcol[key] = entry
        w0, w1 = weights.weights
        pend0, pend1 = weights._pending
    tick0 = cache._tick
    misses = 0
    regrets = 0

    fifo_append = fifo.append
    fifo_popleft = fifo.popleft
    tick = tick0

    for chunk in chunks(keys):
        for tick, key in enumerate(chunk, tick + 1):
            p = pos_of[key]
            if p >= 0:
                freq_col[p] += 1
                last_col[p] = tick
                continue
            misses += 1
            if two:
                entry = hcol[key]
                if entry >= 0:
                    age = hctr - (entry >> shift)
                    if age <= hsize:
                        regrets += 1
                        pen = disc ** age
                        factor = exp(-lr * pen)
                        if entry & 1:
                            w0 *= factor
                            pend0 += pen
                        if entry & 2:
                            w1 *= factor
                            pend1 += pen
                        if w0 < floor:
                            w0 = floor
                        if w1 < floor:
                            w1 = floor
                        total = w0 + w1
                        w0 = w0 / total
                        w1 = w1 / total
            while n >= cap:
                if cur >= blk_len:
                    raw = mirror.random_sample(BLOCK)
                    drawn += BLOCK
                    idx = (raw * cap).astype(np.int64)
                    np.minimum(idx, cap - 1, out=idx)
                    # Carry the unconsumed tail: the replay must stay on the
                    # exact draw sequence across block refills.
                    idx_block = idx_block[cur:] + idx.tolist()
                    if floats:
                        fl_block = fl_block[cur:] + raw.tolist()
                    blk_len = len(idx_block) - reserve
                    cur = 0
                if n == cap and hot:
                    # Unrolled argmin over 5 precomputed slot draws; strict
                    # < keeps the first minimum, like the scalar scan.
                    c1 = idx_block[cur]
                    b0 = pri0[c1]
                    if two:
                        # Dual: pri0 candidate c1, pri1 candidate c2.
                        c2 = c1
                        b1 = pri1[c1]
                        s = idx_block[cur + 1]
                        v = pri0[s]
                        if v < b0:
                            b0 = v
                            c1 = s
                        v = pri1[s]
                        if v < b1:
                            b1 = v
                            c2 = s
                        s = idx_block[cur + 2]
                        v = pri0[s]
                        if v < b0:
                            b0 = v
                            c1 = s
                        v = pri1[s]
                        if v < b1:
                            b1 = v
                            c2 = s
                        s = idx_block[cur + 3]
                        v = pri0[s]
                        if v < b0:
                            b0 = v
                            c1 = s
                        v = pri1[s]
                        if v < b1:
                            b1 = v
                            c2 = s
                        s = idx_block[cur + 4]
                        v = pri0[s]
                        if v < b0:
                            c1 = s
                        v = pri1[s]
                        if v < b1:
                            c2 = s
                    else:
                        s = idx_block[cur + 1]
                        v = pri0[s]
                        if v < b0:
                            b0 = v
                            c1 = s
                        s = idx_block[cur + 2]
                        v = pri0[s]
                        if v < b0:
                            b0 = v
                            c1 = s
                        s = idx_block[cur + 3]
                        v = pri0[s]
                        if v < b0:
                            b0 = v
                            c1 = s
                        s = idx_block[cur + 4]
                        if pri0[s] < b0:
                            c1 = s
                    cur += 5
                elif n > ss:
                    if n == cap:
                        sampled = idx_block[cur : cur + ss]
                    else:
                        sampled = [
                            min(int(fl_block[j] * n), n - 1)
                            for j in range(cur, cur + ss)
                        ]
                    cur += ss
                    c1 = _argbest(sampled, pri0, sign0)
                    if two:
                        c2 = _argbest(sampled, pri1, sign1)
                else:
                    # Tiny store: the scalar path samples every key (no draws).
                    sampled = range(n)
                    c1 = _argbest(sampled, pri0, sign0)
                    if two:
                        c2 = _argbest(sampled, pri1, sign1)
                n -= 1
                if two:
                    # choose() draws even when both candidates coincide.
                    x = fl_block[cur]
                    cur += 1
                    if c1 == c2:
                        vic = c1
                        bm = 3
                    elif x * (w0 + w1) < w0:
                        vic = c1
                        bm = 1
                    else:
                        vic = c2
                        bm = 2
                    vkey = keyid_col[vic]
                    hcol[vkey] = (hctr << shift) | bm
                    fifo_append(vkey)
                    hctr += 1
                    while hctr - base > hsize:
                        okey = fifo_popleft()
                        if hcol[okey] >> shift == base:
                            hcol[okey] = -1
                        base += 1
                else:
                    vic = c1
                    vkey = keyid_col[vic]
                pos_of[vkey] = -1
                # The last slot moves into the victim's (the scalar
                # _remove_key); the insert below then reuses the last slot.
                if vic != n:
                    lk = keyid_col[n]
                    keyid_col[vic] = lk
                    freq_col[vic] = freq_col[n]
                    last_col[vic] = last_col[n]
                    ins_col[vic] = ins_col[n]
                    pos_of[lk] = vic
            pos_of[key] = n
            keyid_col[n] = key
            freq_col[n] = 1
            last_col[n] = tick
            ins_col[n] = tick
            n += 1

    # -- restore scalar state ----------------------------------------------
    # Rebuild the store dict in the exact order the scalar loop would leave
    # it: original insertion order minus evictions, then new inserts in
    # insert-tick order (a re-inserted key moves to its new position).
    del keyid_col[n:]
    store = {}
    for key, meta in orig.items():
        p = pos_of[key]
        if p >= 0 and ins_col[p] <= tick0:
            meta.freq = freq_col[p]
            meta.last_ts = last_col[p]
            store[key] = meta
    fresh = sorted(
        (ins_col[p], p) for p in range(n) if ins_col[p] > tick0
    )
    for insert_ts, p in fresh:
        store[keyid_col[p]] = Metadata(
            size=1,
            insert_ts=insert_ts,
            last_ts=last_col[p],
            freq=freq_col[p],
            cost=1.0,
        )
    cache._store = store
    cache._keys = keyid_col
    cache._key_pos = {key: i for i, key in enumerate(keyid_col)}
    if two:
        # Every key in the FIFO window holds its latest entry, and only
        # those keys do: the scalar dict's contents, in O(history_size).
        cache._history = {key: hcol[key] for key in fifo}
        weights.weights[:] = (w0, w1)
        weights._pending[:] = (pend0, pend1)
        weights._pending_count += regrets
    cache._tick = tick
    total = len(keys)
    hits = total - misses
    cache.hits += hits
    cache.misses += misses
    # n rose by one per miss and fell by one per eviction.
    cache.evictions += len(old_keys) + misses - n
    cache.regrets += regrets
    cache._history_counter = hctr
    cache._history_base = base

    consumed = drawn - (len(idx_block) - cur)
    if consumed:
        # Advance the scalar rng to exactly where a scalar replay would have
        # left it: re-draw the consumed count from the entry state and
        # transplant the resulting MT19937 state back (gauss cache intact —
        # random() never touches it).  The re-draw goes a block at a time:
        # one array of every consumed draw would grow with the trace.
        resync = np.random.RandomState()
        resync.set_state(
            ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
        )
        for done in range(0, consumed, BLOCK):
            resync.random_sample(min(BLOCK, consumed - done))
        _, words, pos, _, _ = resync.get_state()
        cache.rng.setstate(
            (3, tuple(int(v) for v in words) + (int(pos),), entry_state[2])
        )
    return hits


def _argbest(sampled, column, sign):
    """First index among ``sampled`` minimizing ``sign * column[slot]``."""
    it = iter(sampled)
    best = next(it)
    best_p = sign * column[best]
    for s in it:
        p = sign * column[s]
        if p < best_p:
            best_p = p
            best = s
    return best
