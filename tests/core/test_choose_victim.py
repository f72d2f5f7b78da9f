"""Victim choice over a sample: each expert's candidate is its *first*
lowest-priority object, the one ``min(objects, key=priority)`` picks, and
the expert bitmap names every expert whose candidate was the victim.

Experts that all declare a priority column choose on the sample's words
(``_column_victim``); every other expert set runs the generic ``priority``
scan (``_choose_victim``).  The two must agree wherever both apply.
"""

import functools
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DittoCluster, DittoConfig
from repro.core import layout as L
from repro.core.adaptive import bitmap_of
from repro.core.policies import LRU, POLICY_REGISTRY, Metadata
from repro.rdma import RdmaEndpoint

#: Per slot: None (empty), "history", or an object's (insert_ts, last_ts,
#: freq).  LRU's lowest last_ts (3) is tied at positions 3, 4 and 7, LFU's
#: lowest freq (1) at 4 and 6, so the first minimum decides each.
TIED = [
    None, "history", (10, 5, 2), (11, 3, 2),
    (12, 3, 1), "history", (13, 7, 1), (14, 3, 4),
]
#: Both experts' first minimum is the same object (position 2).
SHARED = [
    "history", None, (20, 3, 1), (21, 3, 1),
    (22, 9, 1), None, (23, 3, 5), (24, 4, 1),
]


def _raw(sample) -> bytes:
    words = []
    for i, entry in enumerate(sample):
        if entry is None:
            words += [0] * L.WORDS_PER_SLOT
        elif entry == "history":
            words += [L.pack_history_atomic(7 + i), 0b11, 0, 0, 100 + i]
        else:
            atomic = L.pack_atomic(4096 * (i + 1), 0x12, 1)
            words += [atomic, *entry, 100 + i]
    return struct.pack("<%dQ" % len(words), *words)


def _client(policies):
    cluster = DittoCluster(
        capacity_objects=64, object_bytes=64, num_clients=1, seed=1,
        config=DittoConfig(policies=policies),
    )
    return cluster.clients[0]


def _bucket(client, sample, scattered):
    lay = client.layout
    raw = _raw(sample)
    if not scattered:
        return L.Bucket(16, lay.slot_addr(16), raw, len(sample))
    indices = random.Random(24).sample(range(lay.total_slots), len(sample))
    return L.Bucket(0, lay.table_addr, raw, len(sample), indices)


def _choose(client, slots, objects):
    """Run the generator; with no extension fields it issues no verb."""
    gen = client._choose_victim(slots, objects)
    with pytest.raises(StopIteration) as stop:
        next(gen)
    return stop.value.value


def _first_minima(client, slots, objects):
    """What the choice was defined as: ``min`` over the object positions."""
    now = client._now()
    metas = {i: Metadata(*slots.access_info(i)) for i in objects}
    return [
        min(objects, key=lambda i: policy.priority(metas[i], now))
        for policy in client.policies
    ]


@pytest.mark.parametrize("scattered", [False, True], ids=["sfht", "scattered"])
@pytest.mark.parametrize(
    "sample, expected",
    [(TIED, [3, 4]), (SHARED, [2, 2])],
    ids=["tied", "shared"],
)
def test_two_experts_take_their_first_minimum(monkeypatch, sample, expected,
                                              scattered):
    client = _client(("lru", "lfu"))
    slots = _bucket(client, sample, scattered)
    objects = slots.objects()
    assert _first_minima(client, slots, objects) == expected
    for choice in (0, 1):
        monkeypatch.setattr(client.weights, "choose", lambda: choice)
        victim, bitmap, meta = _choose(client, slots, objects)
        position = expected[choice]
        want = slots.slot(position)
        assert (victim.index, victim.addr, victim.atomic) == (
            want.index, want.addr, want.atomic
        )
        assert bitmap == bitmap_of(expected, position)
        assert bitmap == (0b11 if expected[0] == expected[1] else 1 << choice)
        assert (meta.size, meta.insert_ts, meta.last_ts, meta.freq) == \
            slots.access_info(position)


@pytest.mark.parametrize("scattered", [False, True], ids=["sfht", "scattered"])
@pytest.mark.parametrize("policy, expected", [("lru", 3), ("lfu", 4)])
def test_one_expert_takes_its_first_minimum_without_a_draw(
        monkeypatch, policy, expected, scattered):
    client = _client((policy,))
    slots = _bucket(client, TIED, scattered)
    objects = slots.objects()
    assert _first_minima(client, slots, objects) == [expected]

    def no_draw():
        raise AssertionError("a single expert needs no weighted choice")

    monkeypatch.setattr(client.weights, "choose", no_draw)
    state = client.rng.getstate()
    victim, bitmap, meta = _choose(client, slots, objects)
    assert client.rng.getstate() == state
    assert victim.index == slots.slot(expected).index
    assert victim.addr == slots.slot(expected).addr
    assert bitmap == 1
    assert meta.last_ts == slots.access_info(expected)[2]


# -- the column choice against the generic scan --------------------------------

#: Expert sets whose every expert declares a priority column.
COLUMN_SETS = [
    ("lru",), ("mru",), ("lfu",), ("fifo",),
    ("lru", "lfu"), ("lru", "mru"), ("mru", "fifo"),
    ("lru", "lfu", "fifo"), ("mru", "lfu", "lru"),
]


@functools.lru_cache(maxsize=None)
def _cached_client(policies):
    """One client per expert set: a choice changes nothing but the rng,
    which each example reseeds."""
    return _client(policies)


#: A slot's content: empty, a history entry, or an object's
#: (insert_ts, last_ts, freq) drawn from a narrow range so ties are common.
_slot = st.one_of(
    st.none(),
    st.just("history"),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)


@settings(max_examples=300, deadline=None)
@given(
    policies=st.sampled_from(COLUMN_SETS),
    sample=st.lists(_slot, min_size=1, max_size=12).filter(
        lambda sample: any(isinstance(entry, tuple) for entry in sample)
    ),
    scattered=st.booleans(),
    seed=st.integers(0, 1 << 32),
    weights=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
)
def test_column_choice_equals_the_priority_scan(policies, sample, scattered,
                                                seed, weights):
    client = _cached_client(policies)
    assert client._columns is not None
    client.weights.set_weights(weights[:len(policies)])
    lay = client.layout
    raw = _raw(sample)
    if scattered:
        indices = random.Random(seed).sample(range(lay.total_slots), len(sample))
        slots = L.Bucket(0, lay.table_addr, raw, len(sample), indices)
    else:
        slots = L.Bucket(16, lay.slot_addr(16), raw, len(sample))
    objects = slots.objects()

    client.rng.seed(seed)
    victim, bitmap, meta = client._column_victim(slots, objects)
    state = client.rng.getstate()
    client.rng.seed(seed)
    want_victim, want_bitmap, want_meta = _choose(client, slots, objects)

    assert (victim.index, victim.addr, victim.atomic) == (
        want_victim.index, want_victim.addr, want_victim.atomic
    )
    assert bitmap == want_bitmap
    assert [getattr(meta, f) for f in Metadata.__slots__] == [
        getattr(want_meta, f) for f in Metadata.__slots__
    ]
    assert state == client.rng.getstate()


class _ReorderedLRU(LRU):
    """An LRU subclass with its own ``priority``: its declaration lapses."""

    name = "reordered-lru"

    def priority(self, m: Metadata, now: float) -> float:
        return -m.freq


def _fill_and_evict(cluster, client, n=200):
    for i in range(n):
        cluster.engine.run_process(client.set(b"key%d" % i, b"v" * 40))
    assert client.evictions > 0


def test_overriding_subclass_takes_the_generic_scan(monkeypatch):
    monkeypatch.setitem(POLICY_REGISTRY, _ReorderedLRU.name, _ReorderedLRU)
    cluster = DittoCluster(
        capacity_objects=64, object_bytes=64, num_clients=1, seed=1,
        config=DittoConfig(policies=(_ReorderedLRU.name, "lfu")),
    )
    client = cluster.clients[0]
    assert client._columns is None
    generic = []
    scan = client._choose_victim

    def counted(slots, objects):
        generic.append(len(objects))
        return (yield from scan(slots, objects))

    def refuse(*_args):
        raise AssertionError("an overriding priority must not be read as a column")

    monkeypatch.setattr(client, "_choose_victim", counted)
    monkeypatch.setattr(client, "_column_victim", refuse)
    _fill_and_evict(cluster, client)
    assert len(generic) >= client.evictions


def test_extension_experts_read_each_candidate_with_its_own_verb(monkeypatch):
    cluster = DittoCluster(
        capacity_objects=64, object_bytes=64, num_clients=1, seed=1,
        config=DittoConfig(policies=("lru", "gds")),
    )
    client = cluster.clients[0]
    assert client._columns is None and client.ext_bytes == 8
    _fill_and_evict(cluster, client)

    reads = []
    read = RdmaEndpoint.read

    def logged(self, addr, length):
        raw = yield from read(self, addr, length)
        reads.append((addr, length, raw))
        return raw

    monkeypatch.setattr(RdmaEndpoint, "read", logged)
    evictions = client.evictions
    assert cluster.engine.run_process(client._evict_once())
    assert client.evictions == evictions + 1
    sample_bytes = client.config.sample_size * L.SLOT_SIZE
    samples = [n for n, (_a, length, _r) in enumerate(reads)
               if length == sample_bytes]
    assert samples
    for n in samples:
        addr, _length, raw = reads[n]
        slots = L.Bucket(0, addr, raw, client.config.sample_size)
        expected = [
            (slots.slot(i).pointer + L.OBJECT_HEADER_SIZE, client.ext_bytes)
            for i in slots.objects()
        ]
        got = [(a, length) for a, length, _r in reads[n + 1:n + 1 + len(expected)]]
        assert got == expected
