"""Fast functional simulator of Ditto's caching semantics.

Hit-rate experiments (paper Figs. 3-5, 17-22) replay millions of requests;
running them through the byte-level DM machinery would be needlessly slow.
This simulator reproduces exactly the *algorithmic* behaviour — sampled
eviction with priority functions, the embedded eviction history with logical
FIFO expiry, and regret-minimization over expert weights — while skipping the
network.  It reuses the very same policy classes as the DM client, so the two
tiers cannot drift apart semantically.

Time is a logical access counter, matching how trace-driven cache analysis is
usually done.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.adaptive import ExpertWeights, bitmap_of
from ..core.policies import CachePolicy, Metadata, make_policy
from . import vectorized


class SampledAdaptiveCache:
    """Ditto's cache semantics at trace-replay speed.

    With one policy this is Ditto-LRU/Ditto-LFU/...: sampled eviction under a
    fixed priority function.  With several policies the adaptive machinery
    (history + regret minimization) selects among them, as in the full
    system.
    """

    def __init__(
        self,
        capacity: int,
        policies: Sequence[str] = ("lru", "lfu"),
        sample_size: int = 5,
        history_size: Optional[int] = None,
        learning_rate: float = 0.1,
        seed: int = 0,
        policy_objects: Optional[Sequence[CachePolicy]] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.sample_size = sample_size
        self.history_size = history_size if history_size is not None else capacity
        self.rng = random.Random(seed)
        if policy_objects is not None:
            self.policies: List[CachePolicy] = list(policy_objects)
        else:
            self.policies = [make_policy(name) for name in policies]
        self.adaptive = len(self.policies) > 1
        self.weights = ExpertWeights(
            num_experts=len(self.policies),
            history_size=self.history_size,
            learning_rate=learning_rate,
            batch_size=1 << 30,  # local-only updates; no RPC in this tier
            rng=self.rng,
        )
        self._store: Dict[object, Metadata] = {}
        self._keys: List[object] = []
        self._key_pos: Dict[object, int] = {}
        # Hit-path fast list: bound methods of policies whose ``update`` is
        # overridden.  LRU/LFU/MRU/FIFO/SIZE/HYPERBOLIC inherit the no-op
        # base update, so the common adaptive (lru, lfu) configuration does
        # zero policy calls per hit.
        self._live_updates: Tuple = tuple(
            p.update
            for p in self.policies
            if type(p).update is not CachePolicy.update
        )
        # Same idea for the insert path.  The base on_insert just delegates
        # to update, so a policy overriding neither contributes nothing.
        self._live_on_inserts: Tuple = tuple(
            p.on_insert
            for p in self.policies
            if type(p).on_insert is not CachePolicy.on_insert
            or type(p).update is not CachePolicy.update
        )
        self._live_on_evicts: Tuple = tuple(
            p.on_evict
            for p in self.policies
            if type(p).on_evict is not CachePolicy.on_evict
        )
        # Eviction history: key -> (history_id << num_experts) | expert_bitmap
        # packed into one int (no tuple allocation per eviction), plus a FIFO
        # of keys for lazy pruning.  FIFO entries carry consecutive history
        # ids by construction, so the id of the oldest entry is a single
        # counter (``_history_base``) rather than stored per entry.  Unlike
        # the DM tier's 48-bit on-wire counters, ids here are plain Python
        # ints and never wrap.
        self._history: Dict[object, int] = {}
        self._history_fifo: deque = deque()
        self._history_counter = 0
        self._history_base = 0
        self._hist_shift = len(self.policies)
        self._hist_mask = (1 << self._hist_shift) - 1
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.regrets = 0
        self.evictions = 0

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key) -> bool:
        return key in self._store

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _add_key(self, key) -> None:
        self._key_pos[key] = len(self._keys)
        self._keys.append(key)

    def _remove_key(self, key) -> None:
        pos = self._key_pos.pop(key)
        last = self._keys.pop()
        if last is not key:
            self._keys[pos] = last
            self._key_pos[last] = pos

    def resize(self, capacity: int) -> None:
        """Elastic memory change; over-full caches shrink on later inserts."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity

    @property
    def expert_weights(self) -> List[float]:
        return list(self.weights.weights)

    # -- the access path -----------------------------------------------------

    def access(self, key, size: int = 1, cost: float = 1.0) -> bool:
        """Process one request; inserts on miss.  Returns True on a hit."""
        self._tick += 1
        now = self._tick
        meta = self._store.get(key)
        if meta is not None:
            meta.freq += 1
            for update in self._live_updates:
                update(meta, now)
            meta.last_ts = now
            self.hits += 1
            return True
        self.misses += 1
        self._collect_regret(key)
        self._insert(key, size, cost, now)
        return False

    def access_many(self, keys) -> int:
        """Batched :meth:`access` over a request array; returns hits added.

        Large integer numpy traces take the vectorized replay
        (:mod:`repro.cachesim.vectorized`) when this cache's configuration
        is eligible — columnar metadata, block-drawn rng, inlined regret
        math — which is byte-identical to the scalar loop below: same rng
        draws, same eviction/history/regret sequence, bit-for-bit equal
        metrics and metadata.  ``REPRO_VECTORIZE=0`` forces the scalar loop.

        The scalar path decodes the key array once (``tolist`` — no
        per-element ``int()`` boxing) and keeps the hit path free of
        instance-attribute churn by binding everything hot into locals.
        State transitions are identical to calling ``access`` in a loop.
        """
        if isinstance(keys, np.ndarray):
            if keys.size >= vectorized.MIN_BATCH and vectorized.eligible(self, keys):
                return vectorized.replay(self, keys)
            seq = keys.tolist()
        else:
            seq = [int(k) for k in keys]
        store_get = self._store.get
        updates = self._live_updates
        tick = self._tick
        hits = 0
        for key in seq:
            tick += 1
            meta = store_get(key)
            if meta is not None:
                meta.freq += 1
                if updates:
                    for update in updates:
                        update(meta, tick)
                meta.last_ts = tick
                hits += 1
            else:
                self._tick = tick
                self.misses += 1
                self._collect_regret(key)
                self._insert(key, 1, 1.0, tick)
        self._tick = tick
        self.hits += hits
        return hits

    def lookup(self, key) -> bool:
        """A Get that does *not* insert on miss (for read-only probes)."""
        self._tick += 1
        meta = self._store.get(key)
        if meta is None:
            self.misses += 1
            self._collect_regret(key)
            return False
        meta.freq += 1
        for update in self._live_updates:
            update(meta, self._tick)
        meta.last_ts = self._tick
        self.hits += 1
        return True

    def insert(self, key, size: int = 1, cost: float = 1.0) -> None:
        """Explicit insert (the Set after a miss-penalty fetch)."""
        self._tick += 1
        if key not in self._store:
            self._insert(key, size, cost, self._tick)

    def _insert(self, key, size: int, cost: float, now: int) -> None:
        while len(self._store) >= self.capacity:
            self._evict(now)
        meta = Metadata(
            size=size, insert_ts=now, last_ts=now, freq=1, cost=cost
        )
        for on_insert in self._live_on_inserts:
            on_insert(meta, now)
        self._store[key] = meta
        self._add_key(key)

    # -- eviction + history ---------------------------------------------------

    def _sample(self) -> List[object]:
        keys = self._keys
        n = len(keys)
        if n <= self.sample_size:
            return list(keys)
        # With-replacement float sampling, matching how a DM client samples
        # slots (independent draws; collisions are possible and harmless).
        # Exactly ``sample_size`` uniform draws per eviction — a *fixed*
        # draw count — which is what lets the vectorized replay pre-draw
        # random blocks and stay on the identical rng stream.
        rnd = self.rng.random
        return [keys[min(int(rnd() * n), n - 1)] for _ in range(self.sample_size)]

    def _evict(self, now: int) -> None:
        sampled = self._sample()
        store = self._store
        metas = [store[k] for k in sampled]
        candidates = []
        for policy in self.policies:
            priority = policy.priority
            # Equivalent to min(...) over the sample but with the store
            # lookups hoisted; strict < keeps the first minimum, like min().
            best_key = sampled[0]
            best_p = priority(metas[0], now)
            for i in range(1, len(metas)):
                p = priority(metas[i], now)
                if p < best_p:
                    best_p = p
                    best_key = sampled[i]
            candidates.append(best_key)
        choice = self.weights.choose() if self.adaptive else 0
        victim = candidates[choice]
        bitmap = bitmap_of(candidates, victim)
        meta = self._store.pop(victim)
        self._remove_key(victim)
        for on_evict in self._live_on_evicts:
            on_evict(meta, now)
        self._record_history(victim, bitmap)
        self.evictions += 1

    def _record_history(self, key, bitmap: int) -> None:
        # The age arithmetic of history.is_expired is inlined here (and in
        # _collect_regret): this runs once per eviction, and the trace-replay
        # tier does hundreds of thousands of evictions/sec.
        history_id = self._history_counter
        self._history_counter = counter = history_id + 1
        history = self._history
        history[key] = (history_id << self._hist_shift) | bitmap
        fifo = self._history_fifo
        fifo.append(key)
        # Lazy pruning keeps the dict bounded at ~history_size entries.
        # ``_history_base`` is the id of fifo[0]; ids are consecutive.
        size = self.history_size
        base = self._history_base
        if counter - base > size:
            shift = self._hist_shift
            while counter - base > size:
                old_key = fifo.popleft()
                entry = history.get(old_key)
                if entry is not None and entry >> shift == base:
                    del history[old_key]
                base += 1
            self._history_base = base

    def _collect_regret(self, key) -> None:
        if not self.adaptive:
            return
        entry = self._history.get(key)
        if entry is None:
            return
        age = self._history_counter - (entry >> self._hist_shift)
        if age > self.history_size:
            return
        self.regrets += 1
        self.weights.apply_regret(entry & self._hist_mask, age)
