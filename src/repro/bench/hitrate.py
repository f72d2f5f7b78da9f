"""Hit-rate experiment helpers (the fast cachesim tier)."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..cachesim import ExactLFUCache, ExactLRUCache, RandomCache, SampledAdaptiveCache
from ..sim.stats import hit_rate


def make_hit_cache(system: str, capacity: int, seed: int = 0):
    """Hit-rate model by system name.

    ``ditto`` (adaptive LRU+LFU), ``ditto-lru`` / ``ditto-lfu`` (sampled
    single policy), ``cm-lru`` / ``cm-lfu`` (CliqueMap's precise server-side
    algorithms), ``random``.
    """
    system = system.lower()
    if system == "ditto":
        return SampledAdaptiveCache(capacity, policies=("lru", "lfu"), seed=seed)
    if system.startswith("ditto-"):
        return SampledAdaptiveCache(capacity, policies=(system[6:],), seed=seed)
    if system == "cm-lru":
        return ExactLRUCache(capacity)
    if system == "cm-lfu":
        return ExactLFUCache(capacity)
    if system == "random":
        return RandomCache(capacity, seed=seed)
    raise ValueError(f"unknown hit-rate system {system!r}")


def _replay_span(cache, span) -> None:
    """Feed one trace span through a cache in one batched call.

    The single dispatch point for every replay helper: every hit-rate model
    has ``access_many``, and the sampled simulator's picks the vectorized
    replay itself when eligible.
    """
    cache.access_many(np.asarray(span))


def replay(cache, trace: Sequence[int]) -> float:
    """Replay a trace (miss inserts, as a miss-penalty Set would); returns
    the overall hit rate."""
    _replay_span(cache, trace)
    return cache.hit_rate()


def replay_windowed(cache, trace: Sequence[int], windows: int) -> List[float]:
    """Hit rate per consecutive trace window (for phase/timeline figures)."""
    spans = np.array_split(np.asarray(trace), windows)
    rates: List[float] = []
    for span in spans:
        h0, m0 = cache.hits, cache.misses
        _replay_span(cache, span)
        rates.append(hit_rate(cache.hits - h0, cache.misses - m0))
    return rates


def compare_systems(
    systems: Sequence[str], trace: Sequence[int], capacity: int, seed: int = 0
) -> Dict[str, float]:
    """Hit rate of each named system on the same trace."""
    return {
        system: replay(make_hit_cache(system, capacity, seed=seed), trace)
        for system in systems
    }
