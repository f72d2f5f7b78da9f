"""Exact (non-sampled) cache models: precise LRU, O(1) LFU, and random.

CM-LRU and CM-LFU — the CliqueMap baselines — execute *precise* caching
algorithms with server-side data structures; these classes are their hit-rate
models.  ``RandomCache`` is the normalization baseline of Figure 18.
"""

from __future__ import annotations

import random
from collections import OrderedDict, defaultdict
from typing import Dict, List

from ..sim.stats import hit_rate
from .decode import chunks


class ExactCacheBase:
    """Shared counters + interface of the exact cache models."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def hit_rate(self) -> float:
        return hit_rate(self.hits, self.misses)

    def resize(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity

    def access(self, key, size: int = 1, cost: float = 1.0) -> bool:
        raise NotImplementedError

    def access_many(self, keys) -> int:
        """:meth:`access` over a key array or int sequence, in order;
        returns hits added."""
        hits = self.hits
        access = self.access
        for chunk in chunks(keys):
            for key in chunk:
                access(key)
        return self.hits - hits


class ExactLRUCache(ExactCacheBase):
    """Textbook LRU with a doubly linked list (an OrderedDict)."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._store: "OrderedDict[object, None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key) -> bool:
        return key in self._store

    def access(self, key, size: int = 1, cost: float = 1.0) -> bool:
        if key in self._store:
            self._store.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self.insert(key)
        return False

    def access_many(self, keys) -> int:
        """:meth:`access` per key with the hit/evict loop inlined; the
        counters are added once at the end."""
        store = self._store
        move_to_end = store.move_to_end
        popitem = store.popitem
        capacity = self.capacity
        hits = misses = evictions = 0
        for chunk in chunks(keys):
            for key in chunk:
                if key in store:
                    move_to_end(key)
                    hits += 1
                    continue
                misses += 1
                while len(store) >= capacity:
                    popitem(last=False)
                    evictions += 1
                store[key] = None
        self.hits += hits
        self.misses += misses
        self.evictions += evictions
        return hits

    def touch(self, key) -> bool:
        """Bump recency without hit/miss accounting (CliqueMap merge path)."""
        if key in self._store:
            self._store.move_to_end(key)
            return True
        return False

    def insert(self, key) -> list:
        """Admit ``key`` (no counters); returns the evicted keys."""
        evicted = []
        if key in self._store:
            self._store.move_to_end(key)
            return evicted
        while len(self._store) >= self.capacity:
            victim, _ = self._store.popitem(last=False)
            evicted.append(victim)
            self.evictions += 1
        self._store[key] = None
        return evicted


class ExactLFUCache(ExactCacheBase):
    """O(1) LFU: per-frequency recency buckets with a min-frequency cursor.

    Ties within a frequency break LRU-first, the common implementation.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._freq: Dict[object, int] = {}
        self._buckets: Dict[int, "OrderedDict[object, None]"] = defaultdict(
            OrderedDict
        )
        self._min_freq = 0

    def __len__(self) -> int:
        return len(self._freq)

    def __contains__(self, key) -> bool:
        return key in self._freq

    def _bump(self, key) -> None:
        freq = self._freq[key]
        del self._buckets[freq][key]
        if not self._buckets[freq]:
            del self._buckets[freq]
            if self._min_freq == freq:
                self._min_freq = freq + 1
        self._freq[key] = freq + 1
        self._buckets[freq + 1][key] = None

    def access(self, key, size: int = 1, cost: float = 1.0) -> bool:
        if key in self._freq:
            self._bump(key)
            self.hits += 1
            return True
        self.misses += 1
        self.insert(key)
        return False

    def touch(self, key) -> bool:
        """Bump frequency without hit/miss accounting (CliqueMap merge path)."""
        if key in self._freq:
            self._bump(key)
            return True
        return False

    def insert(self, key) -> list:
        """Admit ``key`` (no counters); returns the evicted keys."""
        evicted = []
        if key in self._freq:
            self._bump(key)
            return evicted
        while len(self._freq) >= self.capacity:
            victim, _ = self._buckets[self._min_freq].popitem(last=False)
            if not self._buckets[self._min_freq]:
                del self._buckets[self._min_freq]
            del self._freq[victim]
            evicted.append(victim)
            self.evictions += 1
        self._freq[key] = 1
        self._buckets[1][key] = None
        self._min_freq = 1
        return evicted


class RandomCache(ExactCacheBase):
    """Random eviction: the hit-rate normalization baseline of Figure 18."""

    def __init__(self, capacity: int, seed: int = 0):
        super().__init__(capacity)
        self._present: Dict[object, int] = {}
        self._keys: List[object] = []
        self._rng = random.Random(seed)

    def __len__(self) -> int:
        return len(self._present)

    def __contains__(self, key) -> bool:
        return key in self._present

    def access(self, key, size: int = 1, cost: float = 1.0) -> bool:
        if key in self._present:
            self.hits += 1
            return True
        self.misses += 1
        while len(self._keys) >= self.capacity:
            pos = self._rng.randrange(len(self._keys))
            victim = self._keys[pos]
            last = self._keys.pop()
            if last is not victim:
                self._keys[pos] = last
                self._present[last] = pos
            del self._present[victim]
            self.evictions += 1
        self._present[key] = len(self._keys)
        self._keys.append(key)
        return False
