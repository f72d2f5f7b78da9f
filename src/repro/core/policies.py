"""Caching algorithms as priority functions (paper §4.2, Table 3).

Ditto's client-centric framework reduces a caching algorithm to two small
callbacks over per-object access metadata:

- ``update(metadata, now)`` — maintain any algorithm-specific *extension*
  metadata after an access (the framework itself maintains the default
  fields of Table 1: size, insert_ts, last_ts, freq), and
- ``priority(metadata, now)`` — map metadata to a real number; the sampled
  object with the **lowest** priority is the eviction victim.

The same policy objects drive both the byte-level DM client
(``repro.core.client``) and the fast hit-rate simulator (``repro.cachesim``),
so hit-rate experiments and throughput experiments share one source of truth
for algorithm semantics.

Policies with per-client state (the GreedyDual family's inflation value ``L``)
keep it in the policy instance, mirroring the paper's client-local "cost"
information.  Extension metadata (``ext_fields``) is stored with the object on
DM and in a dict in the fast simulator.

A policy whose ``priority`` returns one default field, signed, declares it as
``column`` (LRU, MRU, LFU, FIFO).  ``priority`` stays the definition: the
declaration only lets the client and the vectorized replay compare the field
where it lies instead of calling ``priority`` per candidate, and it counts
only while ``priority`` is the declaring class's own (:func:`priority_column`).
Declare ``column`` only when ``priority`` returns exactly that field.  A
policy that declares nothing, like ``examples/custom_policy.py``'s, needs
nothing more: it takes the generic scan.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple, Type


class Metadata:
    """Per-object access information (paper Table 1).

    Global fields are maintained collaboratively in the hash-table slot;
    ``cost`` and ``latency`` are client-local estimates; ``ext`` holds
    algorithm extensions (stored with the object on DM, §4.4).
    """

    __slots__ = ("size", "insert_ts", "last_ts", "freq", "cost", "latency", "ext")

    def __init__(
        self,
        size: int = 1,
        insert_ts: float = 0.0,
        last_ts: float = 0.0,
        freq: int = 0,
        cost: float = 1.0,
        latency: float = 0.0,
        ext: Optional[Dict[str, float]] = None,
    ):
        self.size = size
        self.insert_ts = insert_ts
        self.last_ts = last_ts
        self.freq = freq
        self.cost = cost
        self.latency = latency
        self.ext = ext if ext is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Metadata(size={self.size}, insert_ts={self.insert_ts}, "
            f"last_ts={self.last_ts}, freq={self.freq}, ext={self.ext})"
        )


class CachePolicy:
    """Base class: subclasses define ``priority`` and optionally ``update``."""

    #: registry key and display name
    name = "base"
    #: access information used, for the Table 3 summary
    #: (subset of {"ts_L", "ts_I", "F", "S", "M"})
    info: Tuple[str, ...] = ()
    #: extension metadata fields persisted with objects (all 8-byte floats)
    ext_fields: Tuple[str, ...] = ()
    #: ``(field, sign)`` when ``priority`` is ``sign * getattr(m, field)``
    #: for ``field`` one of ``insert_ts``, ``last_ts`` and ``freq`` (the slot
    #: words a sample carries); None otherwise
    column: Optional[Tuple[str, int]] = None

    def update(self, m: Metadata, now: float) -> None:
        """Maintain extension metadata after an access (default: nothing)."""

    def priority(self, m: Metadata, now: float) -> float:
        raise NotImplementedError

    def on_evict(self, m: Metadata, now: float) -> None:
        """Hook invoked with the victim's metadata (GreedyDual aging)."""

    def on_insert(self, m: Metadata, now: float) -> None:
        """Hook invoked when an object is first inserted."""
        self.update(m, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class LRU(CachePolicy):
    """Least recently used: evict the oldest last-access timestamp."""

    name = "lru"
    info = ("ts_L",)
    column = ("last_ts", 1)

    def priority(self, m: Metadata, now: float) -> float:
        return m.last_ts


class MRU(CachePolicy):
    """Most recently used: evict the newest last-access timestamp."""

    name = "mru"
    info = ("ts_L",)
    column = ("last_ts", -1)

    def priority(self, m: Metadata, now: float) -> float:
        return -m.last_ts


class LFU(CachePolicy):
    """Least frequently used: evict the smallest access count."""

    name = "lfu"
    info = ("F",)
    column = ("freq", 1)

    def priority(self, m: Metadata, now: float) -> float:
        return m.freq


class FIFO(CachePolicy):
    """First in, first out: evict the oldest insertion."""

    name = "fifo"
    info = ("ts_I",)
    column = ("insert_ts", 1)

    def priority(self, m: Metadata, now: float) -> float:
        return m.insert_ts


class SIZE(CachePolicy):
    """Evict the largest object first."""

    name = "size"
    info = ("S",)

    def priority(self, m: Metadata, now: float) -> float:
        return -m.size


class GDS(CachePolicy):
    """GreedyDual-Size (Cao & Irani): H = L + cost / size."""

    name = "gds"
    info = ("S",)
    ext_fields = ("gds_h",)

    def __init__(self) -> None:
        self.inflation = 0.0

    def update(self, m: Metadata, now: float) -> None:
        m.ext["gds_h"] = self.inflation + m.cost / max(m.size, 1)

    def priority(self, m: Metadata, now: float) -> float:
        return m.ext.get("gds_h", 0.0)

    def on_evict(self, m: Metadata, now: float) -> None:
        self.inflation = max(self.inflation, self.priority(m, now))


class GDSF(CachePolicy):
    """GreedyDual-Size-Frequency: H = L + cost * freq / size."""

    name = "gdsf"
    info = ("F", "S")
    ext_fields = ("gdsf_h",)

    def __init__(self) -> None:
        self.inflation = 0.0

    def update(self, m: Metadata, now: float) -> None:
        m.ext["gdsf_h"] = self.inflation + m.cost * m.freq / max(m.size, 1)

    def priority(self, m: Metadata, now: float) -> float:
        return m.ext.get("gdsf_h", 0.0)

    def on_evict(self, m: Metadata, now: float) -> None:
        self.inflation = max(self.inflation, self.priority(m, now))


class LFUDA(CachePolicy):
    """LFU with dynamic aging: H = L + freq."""

    name = "lfuda"
    info = ("F", "M")
    ext_fields = ("lfuda_h",)

    def __init__(self) -> None:
        self.inflation = 0.0

    def update(self, m: Metadata, now: float) -> None:
        m.ext["lfuda_h"] = self.inflation + m.freq

    def priority(self, m: Metadata, now: float) -> float:
        return m.ext.get("lfuda_h", 0.0)

    def on_evict(self, m: Metadata, now: float) -> None:
        self.inflation = max(self.inflation, self.priority(m, now))


class LRUK(CachePolicy):
    """LRU-K (paper Listing 1): evict by the K-th most recent access time.

    The K timestamps form a ring buffer indexed by ``freq``; objects with
    fewer than K accesses fall back to FIFO on their insert timestamp.
    """

    name = "lruk"
    info = ("M",)

    def __init__(self, k: int = 2):
        self.k = k
        self.ext_fields = tuple(f"lruk_ts{i}" for i in range(k))

    def update(self, m: Metadata, now: float) -> None:
        idx = m.freq % self.k
        m.ext[f"lruk_ts{idx}"] = now

    def priority(self, m: Metadata, now: float) -> float:
        if m.freq < self.k:
            return m.insert_ts
        idx = (m.freq - self.k + 1) % self.k
        return m.ext.get(f"lruk_ts{idx}", m.insert_ts)


class LRFU(CachePolicy):
    """LRFU: exponentially decayed combined recency/frequency (CRF) value.

    ``decay_half_life`` is in the same time unit as ``now`` (microseconds in
    the DM simulation, accesses in the fast simulator).
    """

    name = "lrfu"
    info = ("ts_L", "M")
    ext_fields = ("lrfu_crf",)

    def __init__(self, decay_half_life: float = 10_000.0):
        self.decay_half_life = decay_half_life

    def _decay(self, elapsed: float) -> float:
        return 2.0 ** (-elapsed / self.decay_half_life)

    def update(self, m: Metadata, now: float) -> None:
        crf = m.ext.get("lrfu_crf", 0.0)
        elapsed = max(now - m.last_ts, 0.0)
        m.ext["lrfu_crf"] = 1.0 + crf * self._decay(elapsed)

    def priority(self, m: Metadata, now: float) -> float:
        crf = m.ext.get("lrfu_crf", 0.0)
        return crf * self._decay(max(now - m.last_ts, 0.0))


class LIRS(CachePolicy):
    """Simplified LIRS: evict by largest inter-reference recency.

    Objects referenced once have infinite IRR (the HIR set) and are evicted
    first; among re-referenced objects, a larger gap between the last two
    accesses means weaker locality and earlier eviction.
    """

    name = "lirs"
    info = ("F", "ts_L", "M")
    ext_fields = ("lirs_irr",)

    def update(self, m: Metadata, now: float) -> None:
        if m.freq >= 2:
            m.ext["lirs_irr"] = now - m.last_ts
        else:
            m.ext["lirs_irr"] = math.inf

    def priority(self, m: Metadata, now: float) -> float:
        irr = m.ext.get("lirs_irr", math.inf)
        return -irr


class HYPERBOLIC(CachePolicy):
    """Hyperbolic caching (Blankstein et al.): evict the lowest hit density,
    freq / (time in cache * size)."""

    name = "hyperbolic"
    info = ("ts_L", "F", "S")

    def priority(self, m: Metadata, now: float) -> float:
        age = max(now - m.insert_ts, 1e-9)
        return m.freq / (age * max(m.size, 1))


#: All integrated algorithms, keyed by registry name (Table 3 order).
POLICY_REGISTRY: Dict[str, Type[CachePolicy]] = {
    cls.name: cls
    for cls in (
        LRU,
        LFU,
        MRU,
        GDS,
        LIRS,
        FIFO,
        SIZE,
        GDSF,
        LRFU,
        LRUK,
        LFUDA,
        HYPERBOLIC,
    )
}


def make_policy(name: str, **kwargs) -> CachePolicy:
    """Instantiate a registered policy by name (e.g. ``make_policy("lru")``)."""
    try:
        cls = POLICY_REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {sorted(POLICY_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def priority_column(policy: CachePolicy) -> Optional[Tuple[str, int]]:
    """``policy``'s ``column`` declaration, or None when it declares none or
    when its ``priority`` is not the one the declaring class defines (a
    subclass that overrides ``priority`` has to declare afresh)."""
    cls = type(policy)
    for owner in cls.__mro__:
        if "column" in owner.__dict__:
            if owner.__dict__.get("priority") is cls.priority:
                return owner.column
            return None
    return None


def live_hooks(policies) -> Tuple[tuple, tuple, tuple]:
    """The bound ``update``, ``on_insert`` and ``on_evict`` hooks of
    ``policies`` that do something: each policy's overridden ones.  The base
    ``on_insert`` delegates to ``update``, so it is live when ``update`` is.
    """
    updates, inserts, evicts = [], [], []
    for policy in policies:
        cls = type(policy)
        live_update = cls.update is not CachePolicy.update
        if live_update:
            updates.append(policy.update)
        if live_update or cls.on_insert is not CachePolicy.on_insert:
            inserts.append(policy.on_insert)
        if cls.on_evict is not CachePolicy.on_evict:
            evicts.append(policy.on_evict)
    return tuple(updates), tuple(inserts), tuple(evicts)


def policy_loc(policy: CachePolicy) -> int:
    """Lines of code of a policy's update/priority/hooks (Table 3's metric).

    Counts non-blank, non-docstring source lines of the methods the policy
    overrides, i.e. the code a user writes to integrate the algorithm.
    """
    import inspect

    total = 0
    for attr in ("update", "priority", "on_evict", "on_insert", "__init__"):
        fn = getattr(type(policy), attr, None)
        if fn is None or getattr(CachePolicy, attr, None) is fn:
            continue
        source = inspect.getsource(fn)
        in_doc = False
        for line in source.splitlines():
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith(('"""', "'''")):
                # toggle docstring state; single-line docstrings toggle twice
                quote = stripped[:3]
                if stripped == quote or not stripped.endswith(quote) or len(stripped) < 6:
                    in_doc = not in_doc
                continue
            if in_doc:
                continue
            total += 1
    return total
