"""Victim choice over a sample: each expert's candidate is its *first*
lowest-priority object, the one ``min(objects, key=priority)`` picks, and
the expert bitmap names every expert whose candidate was the victim."""

import random
import struct

import pytest

from repro.core import DittoCluster, DittoConfig
from repro.core import layout as L
from repro.core.adaptive import bitmap_of
from repro.core.policies import Metadata

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
