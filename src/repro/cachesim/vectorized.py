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
- **Block-drawn rng.**  The scalar path draws uniforms one at a time from
  ``random.Random`` (MT19937).  numpy's ``RandomState`` is the *same*
  generator, so the replay transplants the MT19937 state into numpy, draws
  uniforms in blocks of :data:`BLOCK` (bit-identical to sequential
  ``rng.random()`` calls), precomputes the slot index each draw would select
  at full capacity, and transplants the advanced state back at exit (the
  scalar path sees nothing).
- **Inlined adaptivity.**  For the dominant two-expert configuration the
  regret update (penalize → clip → normalize) and the proportional expert
  choice are inlined float math, verified identical to
  ``ExpertWeights.apply_regret``/``choose``.

Eligibility is conservative: integer keys in a bounded range, supported
priority functions (LRU/LFU/FIFO/MRU — priorities that are a signed
metadata column), no live policy hooks, and one or two experts.  Anything
else silently replays scalar.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..core.adaptive import WEIGHT_FLOOR
from ..core.policies import FIFO, LFU, LRU, MRU, Metadata

#: Batches below this size replay scalar: the fixed setup cost (columnar
#: encode, rng mirror, store rebuild) dominates under ~1k accesses.
MIN_BATCH = 1024

#: Keys (trace and resident) must be non-negative ints below this bound so
#: the dense key → slot table stays small.
MAX_KEY = 1 << 22

#: Uniform draws are pre-drawn in blocks of this many.
BLOCK = 8192

#: Supported priority functions as (column, sign): column 0 = freq,
#: 1 = last_ts, 2 = insert_ts; priority == sign * column, minimized.
_SUPPORTED = {LRU: (1, 1), LFU: (0, 1), FIFO: (2, 1), MRU: (1, -1)}


def eligible(cache, keys: np.ndarray) -> bool:
    """Whether ``replay`` can run this batch byte-identically."""
    if os.environ.get("REPRO_VECTORIZE") == "0":
        return False
    if keys.ndim != 1 or keys.dtype.kind not in "iu" or keys.size == 0:
        return False
    policies = cache.policies
    for policy in policies:
        if type(policy) not in _SUPPORTED:
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
    for key in cache._keys:
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

    col0, sign0 = _SUPPORTED[type(cache.policies[0])]
    if two:
        col1, sign1 = _SUPPORTED[type(cache.policies[1])]
    else:
        col1, sign1 = col0, sign0
    # The dominant configuration — adaptive (lru, lfu) with the default
    # sample size — gets an unrolled candidate scan below.
    hot = two and ss == 5 and (col0, sign0) == (1, 1) and (col1, sign1) == (0, 1)

    # -- columnar encode ---------------------------------------------------
    orig = cache._store
    kmax = int(keys.max())
    top = max([kmax] + cache._keys) + 1 if orig else kmax + 1
    pos_of = [-1] * top
    keyid_col: list = []
    freq_col: list = []
    last_col: list = []
    ins_col: list = []
    for key in cache._keys:  # slot order must mirror the scalar _keys list
        meta = orig[key]
        pos_of[key] = len(keyid_col)
        keyid_col.append(key)
        freq_col.append(meta.freq)
        last_col.append(meta.last_ts)
        ins_col.append(meta.insert_ts)
    cols = (freq_col, last_col, ins_col)
    pri0 = cols[col0]
    pri1 = cols[col1]

    # -- rng mirror --------------------------------------------------------
    entry_state = cache.rng.getstate()
    internal = entry_state[1]
    mirror = np.random.RandomState()
    mirror.set_state(
        ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
    )
    fl_block: list = []  # raw uniforms (scalar fallback + choose draws)
    idx_block: list = []  # min(int(u * cap), cap - 1), precomputed per block
    cur = 0
    blk_len = 0
    drawn = 0
    reserve = ss + 1  # max draws one eviction can consume

    hist = cache._history
    fifo = cache._history_fifo
    hctr = cache._history_counter
    base = cache._history_base
    w = weights.weights
    pend = weights._pending
    tick0 = cache._tick
    misses = 0
    evictions = 0
    regrets = 0
    ids = keys.tolist()

    hist_get = hist.get
    fifo_append = fifo.append
    fifo_popleft = fifo.popleft
    key_append = keyid_col.append
    freq_append = freq_col.append
    last_append = last_col.append
    ins_append = ins_col.append
    key_pop = keyid_col.pop
    freq_pop = freq_col.pop
    last_pop = last_col.pop
    ins_pop = ins_col.pop
    n = len(keyid_col)
    tick = tick0

    for tick, key in enumerate(ids, tick0 + 1):
        p = pos_of[key]
        if p >= 0:
            freq_col[p] += 1
            last_col[p] = tick
            continue
        misses += 1
        if two:
            entry = hist_get(key)
            if entry is not None:
                age = hctr - (entry >> shift)
                if age <= hsize:
                    regrets += 1
                    pen = disc ** age
                    w0 = w[0]
                    w1 = w[1]
                    if entry & 1:
                        w0 *= exp(-lr * pen)
                        pend[0] += pen
                    if entry & 2:
                        w1 *= exp(-lr * pen)
                        pend[1] += pen
                    if w0 < floor:
                        w0 = floor
                    if w1 < floor:
                        w1 = floor
                    total = w0 + w1
                    w[0] = w0 / total
                    w[1] = w1 / total
                    weights._pending_count += 1
        while n >= cap:
            if cur >= blk_len:
                raw = mirror.random_sample(BLOCK)
                drawn += BLOCK
                idx = (raw * cap).astype(np.int64)
                np.minimum(idx, cap - 1, out=idx)
                # Carry the unconsumed tail: the replay must stay on the
                # exact draw sequence across block refills.
                fl_block = fl_block[cur:] + raw.tolist()
                idx_block = idx_block[cur:] + idx.tolist()
                blk_len = len(fl_block) - reserve
                cur = 0
            if n > ss:
                if hot and n == cap:
                    # Unrolled dual argmin (LRU candidate c1, LFU candidate
                    # c2) over 5 precomputed slot draws; strict < keeps the
                    # first minimum, like the scalar scan.
                    c1 = idx_block[cur]
                    b_l = last_col[c1]
                    c2 = c1
                    b_f = freq_col[c1]
                    s = idx_block[cur + 1]
                    l = last_col[s]
                    if l < b_l:
                        b_l = l
                        c1 = s
                    f = freq_col[s]
                    if f < b_f:
                        b_f = f
                        c2 = s
                    s = idx_block[cur + 2]
                    l = last_col[s]
                    if l < b_l:
                        b_l = l
                        c1 = s
                    f = freq_col[s]
                    if f < b_f:
                        b_f = f
                        c2 = s
                    s = idx_block[cur + 3]
                    l = last_col[s]
                    if l < b_l:
                        b_l = l
                        c1 = s
                    f = freq_col[s]
                    if f < b_f:
                        b_f = f
                        c2 = s
                    s = idx_block[cur + 4]
                    l = last_col[s]
                    if l < b_l:
                        b_l = l
                        c1 = s
                    f = freq_col[s]
                    if f < b_f:
                        b_f = f
                        c2 = s
                    cur += 5
                elif n == cap:
                    sampled = idx_block[cur : cur + ss]
                    cur += ss
                    c1 = _argbest(sampled, pri0, sign0)
                    c2 = _argbest(sampled, pri1, sign1) if two else c1
                else:
                    sampled = [
                        min(int(fl_block[j] * n), n - 1)
                        for j in range(cur, cur + ss)
                    ]
                    cur += ss
                    c1 = _argbest(sampled, pri0, sign0)
                    c2 = _argbest(sampled, pri1, sign1) if two else c1
            else:
                # Tiny store: the scalar path samples every key (no draws).
                sampled = range(n)
                c1 = _argbest(sampled, pri0, sign0)
                c2 = _argbest(sampled, pri1, sign1) if two else c1
            if two:
                # choose() draws even when both candidates coincide.
                x = fl_block[cur]
                cur += 1
                if c1 == c2:
                    vic = c1
                    bm = 3
                elif x * (w[0] + w[1]) < w[0]:
                    vic = c1
                    bm = 1
                else:
                    vic = c2
                    bm = 2
            else:
                vic = c1
                bm = 1
            vkey = keyid_col[vic]
            pos_of[vkey] = -1
            n -= 1
            lk = key_pop()
            lf = freq_pop()
            ll = last_pop()
            li = ins_pop()
            if vic != n:
                keyid_col[vic] = lk
                freq_col[vic] = lf
                last_col[vic] = ll
                ins_col[vic] = li
                pos_of[lk] = vic
            hist[vkey] = (hctr << shift) | bm
            fifo_append(vkey)
            hctr += 1
            while hctr - base > hsize:
                okey = fifo_popleft()
                e = hist_get(okey)
                if e is not None and e >> shift == base:
                    del hist[okey]
                base += 1
            evictions += 1
        pos_of[key] = n
        key_append(key)
        freq_append(1)
        last_append(tick)
        ins_append(tick)
        n += 1

    # -- restore scalar state ----------------------------------------------
    # Rebuild the store dict in the exact order the scalar loop would leave
    # it: original insertion order minus evictions, then new inserts in
    # insert-tick order (a re-inserted key moves to its new position).
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
    cache._tick = tick
    total = len(ids)
    hits = total - misses
    cache.hits += hits
    cache.misses += misses
    cache.evictions += evictions
    cache.regrets += regrets
    cache._history_counter = hctr
    cache._history_base = base

    consumed = drawn - (len(fl_block) - cur)
    if consumed:
        # Advance the scalar rng to exactly where a scalar replay would have
        # left it: re-draw the consumed count from the entry state and
        # transplant the resulting MT19937 state back (gauss cache intact —
        # random() never touches it).
        resync = np.random.RandomState()
        resync.set_state(
            ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
        )
        resync.random_sample(consumed)
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
