"""Crash at every store: a restarted node adopts a consistent grant state.

The memory node writes its grant journal (``repro.runtime.journal``) with
single 8-byte stores, and a SIGKILL can land between any two of them.
The property drives a generated sequence of ``DurableSegmentState``
``alloc``/``free``/``reassign`` commands over a ``bytearray`` journal,
copies the buffer after every store, and adopts each copy as a restarted
node would.  Every adoption must keep what was acknowledged before the
interrupted command; the grant that command was making, freeing or
moving may land either way, but never twice.  The weight vector node 0
journals on every fold comes back whole: the last acknowledged one, or
the one being written.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.adaptive import GlobalWeights
from repro.runtime.journal import (
    DurableSegmentState,
    GrantJournal,
    journal_bytes,
)

CAPACITY = 64
START, END = 4096, 1 << 20

#: (kind, size, owner, other owner, with a token?, which live grant to free)
COMMAND = st.tuples(
    st.sampled_from(["alloc", "alloc", "free", "reassign"]),
    st.sampled_from([4096, 8192]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.booleans(),
    st.integers(0, 1 << 16),
)


def _live(state):
    """addr -> (owner, size) for every grant ``state`` holds."""
    return {
        addr: (owner, size)
        for owner, segs in state.grants.items()
        for addr, size in segs
    }


def _check_adoption(snapshot, before, after, tokens_before, tokens_after):
    adopted = DurableSegmentState.adopt(
        0, START, END, memoryview(bytearray(snapshot)))
    got = _live(adopted)

    # Acknowledged grants survive, each with its owner (or, under a
    # reassign in flight, its new owner); the grant the command was
    # making or freeing may be present or absent, never changed.
    for addr in before.keys() & after.keys():
        assert got.get(addr) in (before[addr], after[addr])
    for addr in before.keys() ^ after.keys():
        if addr in got:
            assert got[addr] == {**before, **after}[addr]
    assert got.keys() <= before.keys() | after.keys()

    # No byte is granted or free twice, and the bump pointer is past all.
    ranges = sorted(
        [(addr, size) for addr, (_owner, size) in got.items()]
        + [(addr, size)
           for size, addrs in adopted.free_segments.items()
           for addr in addrs]
    )
    for (addr, size), (next_addr, _size) in zip(ranges, ranges[1:]):
        assert addr + size <= next_addr
    assert all(adopted.next_free >= addr + size for addr, size in ranges)

    # Every acknowledged alloc's token still finds its grant, unless the
    # interrupted command was freeing it; no token maps anywhere else.
    for token, addr in tokens_before.items():
        if addr in after:
            assert adopted.token_grants.get(token) == addr
    assert adopted.token_grants.items() <= {**tokens_before, **tokens_after}.items()
    return adopted


@settings(max_examples=150, deadline=None)
@given(commands=st.lists(COMMAND, max_size=30))
@example(commands=[  # free, then reuse of the freed range, then a move
    ("alloc", 4096, 1, 0, True, 0),
    ("alloc", 4096, 2, 0, False, 0),
    ("free", 4096, 0, 0, False, 0),
    ("alloc", 4096, 3, 0, True, 0),
    ("reassign", 4096, 3, 1, False, 0),
])
def test_adopt_after_a_crash_at_every_store(commands):
    buf = bytearray(journal_bytes(CAPACITY))
    journal = GrantJournal(memoryview(buf), CAPACITY)
    state = DurableSegmentState(0, START, END, journal)
    snapshots = []

    def tap(store):
        def stored(off, value):
            store(off, value)
            snapshots.append(bytes(buf))
        return stored

    journal._store_u64 = tap(journal._store_u64)
    journal._store_i64 = tap(journal._store_i64)

    tokens = {}  # token -> addr, for every live acknowledged alloc
    next_token = 1
    for kind, size, owner, other, with_token, pick in commands:
        before, tokens_before = _live(state), dict(tokens)
        first = len(snapshots)
        if kind == "alloc":
            token = next_token if with_token else 0
            addr = state.alloc(size, owner, token)
            if token:
                tokens[token] = addr
                next_token += 1
        elif kind == "free":
            if not before:
                continue
            addr = sorted(before)[pick % len(before)]
            state.free(addr, before[addr][1])
            tokens = {t: a for t, a in tokens.items() if a != addr}
        else:
            state.reassign(owner, other)
        after = _live(state)
        for snapshot in snapshots[first:]:
            _check_adoption(snapshot, before, after, tokens_before, tokens)

    # With every command acknowledged, adoption is exact.
    final = _check_adoption(bytes(buf), _live(state), _live(state),
                            tokens, tokens)
    assert _live(final) == _live(state)
    assert final.token_grants == tokens


@settings(max_examples=100, deadline=None)
@given(folds=st.lists(
    st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3), max_size=12))
def test_adopted_weights_are_the_last_whole_fold(folds):
    """A SIGKILL before or after any store of a fold adopts the vector
    of the fold before it or of this one, bit for bit, never a mix."""
    buf = bytearray(journal_bytes(CAPACITY))
    journal = GrantJournal(memoryview(buf), CAPACITY)
    journal.initialize(START)
    weights = GlobalWeights(3, on_update=journal.record_weights)
    snapshots = []
    store = journal._store_u64

    def stored(off, value):
        snapshots.append(bytes(buf))
        store(off, value)
        snapshots.append(bytes(buf))

    journal._store_u64 = stored
    acknowledged = None
    for penalties in folds:
        first = len(snapshots)
        answer = weights.handle_update(penalties)
        for snapshot in snapshots[first:]:
            adopted = GrantJournal.attach(memoryview(bytearray(snapshot)))
            assert adopted.weights() in (acknowledged, answer)
        acknowledged = answer
    assert GrantJournal.attach(memoryview(buf)).weights() == acknowledged
