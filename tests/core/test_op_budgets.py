"""What exhausting each op budget means, as one table (DESIGN §3.2).

``DittoClient._attempts`` is the only retry loop; every row here drives a
real Get/Set/Delete into one exhausted budget and checks the outcome, the
attempt counts, the counters, and that the attempt's undo markers are clear
and the budget ledger is where it started.  The install sequence's own
contracts ride along: the size check precedes every side effect on insert
*and* update, and a client killed between WRITE and CAS keeps its markers
for ``recover_client``.
"""

import pytest

from repro import DittoCache
from repro.bench.systems import build_ditto
from repro.core import CacheOperationError, invariant_sweep
from repro.core.layout import MAX_SIZE_BLOCKS
from repro.memory import OutOfMemoryError
from repro.rdma import NodeUnavailable, StaleEpoch, VerbTimeout
from repro.rdma.transport import VerbTransport
from repro.sim import DropWindow, FaultPlan, NodeOutage

KEY = b"k"
VALUE = b"v" * 64
FAULT_RETRIES, EPOCH_RETRIES, MAX_RETRIES = 3, 2, 4


class LosesEveryCas:
    """A transport whose CAS always finds the word changed under it — a
    bare one, or the one that closes a ``write_then_cas`` chain."""

    def __init__(self, ep):
        self._ep = ep

    def __getattr__(self, name):
        return getattr(self._ep, name)

    def cas(self, addr, expected, new):
        yield from self._ep.read(addr, 8)  # the round trip, with no effect
        return expected ^ 1

    # The contract's default: this wrapper's WRITE, then this ``cas``.
    write_then_cas = VerbTransport.write_then_cas


def exhaust_pool(cluster):
    """Make every future segment RPC fail and every bump cursor dry."""
    for node in cluster.nodes:
        node.controller.state.next_free = node.end
        node.controller.state.free_segments.clear()
    for alloc in cluster.clients[0].alloc.allocators:
        if alloc._bump_addr is not None and alloc._bump_addr < alloc._bump_end:
            alloc._spare.append(
                (alloc._bump_addr, alloc._bump_end - alloc._bump_addr)
            )
            alloc._bump_addr = alloc._bump_end


def arm(cluster, client, op, budget):
    """Put the cluster in the state that exhausts ``budget`` for ``op``."""
    now = cluster.engine.now
    node = cluster.node
    if budget == "cas":
        client.ep = LosesEveryCas(client.ep)
    elif budget == "faults":
        # Late in the op, so a Set has its block and budget to roll back.
        verb = "read" if op == "get" else "cas"
        cluster.fault_injector.load(
            FaultPlan(drops=(DropWindow(0.0, 1e12, verbs=(verb,)),)),
            offset_us=now,
        )
    elif budget == "deadline":
        cluster.fault_injector.load(
            FaultPlan(drops=(DropWindow(0.0, 1e12),)), offset_us=now
        )
    elif budget == "unavailable":
        cluster.fault_injector.load(
            FaultPlan(outages=(NodeOutage(0, 0.0, 1e12),)), offset_us=now
        )
    elif budget == "stale":
        cluster._ensure_elastic()
        if op == "get":
            # Only a retired range fences READs; the refresh RPC is fenced
            # with it, and a faulted refresh is swallowed, not charged.
            cluster.fence.retire(node.base, node.end, node.node_id)
        else:
            cluster.fence.fence_writes(node.base, node.end, node.node_id)
    elif budget == "oom":
        exhaust_pool(cluster)


#: (op, budget) -> (reason fragment or None for a degraded miss,
#:                  attempts, fault_attempts, cause type, counters).
STALE = {"stale_epoch_retry": EPOCH_RETRIES}
FAULTED = {"fault_retry": FAULT_RETRIES}
TABLE = {
    ("get", "faults"): (None, None, None, None, FAULTED),
    ("get", "stale"): (None, None, None, None, {**STALE, "membership_refresh": 0}),
    ("get", "deadline"): (None, None, None, None, {}),
    ("get", "unavailable"): (None, None, None, None, {"fault_retry": 0}),
    ("set", "cas"): ("extreme contention", MAX_RETRIES, 0, None, {}),
    ("set", "faults"): (
        "fault retries exhausted", FAULT_RETRIES + 1, FAULT_RETRIES + 1,
        VerbTimeout, FAULTED,
    ),
    ("set", "stale"): (
        "membership refresh budget", EPOCH_RETRIES + 1, 0, StaleEpoch,
        {**STALE, "membership_refresh": EPOCH_RETRIES},
    ),
    ("set", "deadline"): ("op deadline", None, None, None, {}),
    ("set", "unavailable"): (
        "fault retries exhausted", FAULT_RETRIES + 1, FAULT_RETRIES + 1,
        NodeUnavailable, FAULTED,
    ),
    ("set", "oom"): (
        "nothing evictable", 1, 0, OutOfMemoryError, {"alloc_oom": 1},
    ),
    ("delete", "cas"): ("extreme contention", MAX_RETRIES, 0, None, {}),
    ("delete", "faults"): (
        "fault retries exhausted", FAULT_RETRIES + 1, FAULT_RETRIES + 1,
        VerbTimeout, FAULTED,
    ),
    ("delete", "stale"): (
        "membership refresh budget", EPOCH_RETRIES + 1, 0, StaleEpoch,
        {**STALE, "membership_refresh": EPOCH_RETRIES},
    ),
    ("delete", "deadline"): ("op deadline", None, None, None, {}),
    ("delete", "unavailable"): (
        "fault retries exhausted", FAULT_RETRIES + 1, FAULT_RETRIES + 1,
        NodeUnavailable, FAULTED,
    ),
}


@pytest.mark.parametrize("op,budget", sorted(TABLE))
def test_exhausted_budget(op, budget):
    reason, attempts, fault_attempts, cause, counters = TABLE[op, budget]
    deadline = budget == "deadline"
    cluster = build_ditto(
        64, 1, seed=11, faults=FaultPlan(), segment_bytes=4096,
        fault_retries=100 if deadline else FAULT_RETRIES,
        op_deadline_us=150.0 if deadline else 0.0,
        epoch_retries=EPOCH_RETRIES, max_retries=MAX_RETRIES,
    )
    client = cluster.clients[0]
    run = cluster.engine.run_process
    if budget != "oom":  # there, nothing must be evictable
        run(client.set(KEY, VALUE))
    used, misses = cluster.budget.used_bytes, client.misses
    arm(cluster, client, op, budget)
    call = {
        "get": lambda: client.get(KEY),
        "set": lambda: client.set(KEY, b"w" * 64),
        "delete": lambda: client.delete(KEY),
    }[op]

    if reason is None:
        assert run(call()) is None
        assert client.misses == misses + 1
        counters = {**counters, "fault_miss_through": 1}
    else:
        with pytest.raises(CacheOperationError) as excinfo:
            run(call())
        err = excinfo.value
        assert (err.op, err.key) == (op, KEY)
        assert reason in err.reason
        if attempts is not None:
            assert (err.attempts, err.fault_attempts) == (attempts, fault_attempts)
        else:
            assert err.elapsed_us >= 150.0
        assert type(err.cause) is (cause or type(None))
        assert "fault_miss_through" not in cluster.counters.as_dict()
    seen = cluster.counters.as_dict()
    assert {name: seen.get(name, 0) for name in counters} == counters
    if deadline:  # it, not the 100 fault retries, ended the op
        assert seen["fault_retry"] < 5
    # Whatever the attempts took, they gave back.
    assert client._pending_block is None and client._pending_budget == 0
    assert cluster.budget.used_bytes == used
    if budget != "oom":  # exhaust_pool leaves the controller's ledger bent
        invariant_sweep(cluster)


class TestOversizeValue:
    """The slot's size byte holds 1..MAX_SIZE_BLOCKS; 0xFF marks a history
    entry.  An oversize *update* used to skip the check the insert made."""

    @pytest.mark.parametrize("value_bytes", [16256, 16394])
    def test_oversize_update_is_refused_before_any_side_effect(self, value_bytes):
        cache = DittoCache(capacity_objects=256, object_bytes=256)
        cache.set("k", b"x" * 100)
        cluster = cache.cluster
        client = cluster.clients[0]
        used = cluster.budget.used_bytes
        with pytest.raises(ValueError, match="too large for the slot size"):
            cache.set("k", b"y" * value_bytes)
        assert cache.get("k") == b"x" * 100
        assert cluster.budget.used_bytes == used
        assert client._pending_block is None and client._pending_budget == 0
        invariant_sweep(cluster)

    def test_largest_value_that_fits_updates_in_place(self):
        cache = DittoCache(capacity_objects=256, object_bytes=256)
        cache.set("k", b"x" * 100)
        fits = b"y" * (MAX_SIZE_BLOCKS * 64 - 100)
        cache.set("k", fits)
        assert cache.get("k") == fits
        invariant_sweep(cache.cluster)


def test_client_killed_between_write_and_cas_keeps_its_markers():
    """Roll-back must not run on ``GeneratorExit``: a crashed client leaves
    its block and budget markers for the survivor to reclaim."""
    cluster = build_ditto(64, 2, seed=12, faults=FaultPlan())
    dead, survivor = cluster.clients
    engine = cluster.engine
    engine.run_process(dead.set(KEY, VALUE))
    used = cluster.budget.used_bytes
    process = engine.spawn(dead.set(KEY, b"w" * 64), name="doomed")
    until = engine.now
    while dead._pending_block is None:
        assert not process.finished
        until += 0.25
        engine.run(until=until)
    process.kill()
    engine.run()
    assert dead._pending_block is not None
    assert dead._pending_budget > 0
    assert cluster.budget.used_bytes == used + dead._pending_budget

    dead.dead = True
    engine.run_process(cluster.recover_client(dead, survivor))
    assert dead._pending_block is None and dead._pending_budget == 0
    assert cluster.budget.used_bytes == used
    assert cluster.counters.as_dict()["crash_block_reclaimed"] == 1
    assert engine.run_process(survivor.get(KEY)) == VALUE
    invariant_sweep(cluster)
