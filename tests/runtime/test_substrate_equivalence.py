"""One client, one stream, one verb sequence on both substrates.

The client is deterministic: fed the same requests, starting from the
same empty cluster, it issues the same verbs whatever carries them.  So
the one measuring harness, :class:`~repro.bench.runner.Harness`,
launches one client's closed loop over one
:func:`~repro.bench.runner.zipf_feed` stream for a set number of ops on
the sim and on a live 2-node cluster, and every verb it issues is recorded as (verb, address,
length, digest of the bytes written).  Posted writes carry timestamps,
which differ between a simulated and a wall clock, so they are recorded
by address and length only; the order of those timestamps, which is all
the experts read, is the order of the ops on both.  The two sequences,
and the hit, eviction and regret counts, must be equal.  So must the
memory nodes' heaps at the end, byte for byte with the hash table's clock
words masked, and the memory-accounting sweep must hold on both.  Each
check runs for the default config and for Figure 24's ``-all`` ablation.
"""

from __future__ import annotations

import asyncio
import hashlib

import pytest

from repro.bench.experiments.fig24_ablation import VARIANTS
from repro.bench.runner import Harness, zipf_feed
from repro.bench.systems import build_ditto
from repro.core import invariants
from repro.core import layout as L
from repro.rdma import RdmaEndpoint
from repro.runtime.client import RealEndpoint
from repro.runtime.cluster import RealCluster
from repro.runtime.harness import RealClusterHarness

CAPACITY = 256
NODES = 2
OPS = 3000
N_KEYS = 600
THETA = 0.99
READ_RATIO = 0.5
SEED = 3


def _digest(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()[:16]


def _record_verbs(monkeypatch, log):
    """Log every verb either endpoint class issues, in issue order."""
    for cls in (RdmaEndpoint, RealEndpoint):
        read, write, cas, faa, rpc, post_write, post_faa = (
            cls.read, cls.write, cls.cas, cls.faa, cls.rpc,
            cls.post_write, cls.post_faa,
        )

        def rec_read(self, addr, length, _f=read):
            log.append(("read", addr, length, ""))
            return (yield from _f(self, addr, length))

        def rec_write(self, addr, data, _f=write):
            log.append(("write", addr, len(data), _digest(data)))
            return (yield from _f(self, addr, data))

        def rec_cas(self, addr, expected, new, _f=cas):
            log.append(("cas", addr, 8, f"{expected:x}>{new:x}"))
            return (yield from _f(self, addr, expected, new))

        def rec_faa(self, addr, delta, _f=faa):
            log.append(("faa", addr, 8, str(delta)))
            return (yield from _f(self, addr, delta))

        def rec_rpc(self, node, op, payload=None, size=64, _f=rpc):
            log.append(("rpc", node.node_id, 0, f"{op}:{payload!r}"))
            return (yield from _f(self, node, op, payload, size))

        def rec_post_write(self, addr, data, _f=post_write):
            log.append(("post_write", addr, len(data), ""))
            _f(self, addr, data)

        def rec_post_faa(self, addr, delta, _f=post_faa):
            log.append(("post_faa", addr, 8, str(delta)))
            _f(self, addr, delta)

        for name, fn in (
            ("read", rec_read), ("write", rec_write), ("cas", rec_cas),
            ("faa", rec_faa), ("rpc", rec_rpc),
            ("post_write", rec_post_write), ("post_faa", rec_post_faa),
        ):
            monkeypatch.setattr(cls, name, fn)

    # The sim's chain is the inherited write-then-cas, whose verbs log
    # themselves; the real one sends one frame of its own.
    chain = RealEndpoint.write_then_cas

    def rec_chain(self, addr, data, cas_addr, expected, new):
        log.append(("write", addr, len(data), _digest(data)))
        log.append(("cas", cas_addr, 8, f"{expected:x}>{new:x}"))
        return (yield from chain(self, addr, data, cas_addr, expected, new))

    monkeypatch.setattr(RealEndpoint, "write_then_cas", rec_chain)


def _launch(engine, client):
    """The one client's driver, launched by the shared harness."""
    return Harness(engine).launch(
        client, zipf_feed(OPS, N_KEYS, THETA, READ_RATIO, SEED), OPS
    )


def _counts(client):
    return client.hits, client.misses, client.evictions, client.regrets


def _masked(heaps, layout):
    """The heaps with the hash table's clock words zeroed: every slot's
    ``last_ts``, and ``insert_ts`` unless the slot is a history entry,
    whose ``insert_ts`` word is its expert bitmap.  Emptied slots keep
    their old words, so they are masked too.  The table is on node 0."""
    node0 = bytearray(heaps[0])
    start, end = layout.table_addr, layout.table_addr + layout.table_bytes
    table = L.Bucket(0, start, node0[start:end], layout.total_slots)
    for i in range(table.count):
        at = start + i * L.SLOT_SIZE
        if not table.slot(i).is_history:
            node0[at + L.INSERT_TS_OFF : at + L.LAST_TS_OFF] = bytes(8)
        node0[at + L.LAST_TS_OFF : at + L.FREQ_OFF] = bytes(8)
    return [bytes(node0), *heaps[1:]]


def _sim_run(flags):
    cluster = build_ditto(
        CAPACITY, 1, num_memory_nodes=NODES, seed=SEED, **flags
    )
    client = cluster.clients[0]
    _launch(cluster.engine, client)
    cluster.engine.run()
    invariants.sweep(cluster)
    heaps = [node.read_bytes(node.base, node.end - node.base)
             for node in cluster.nodes]
    return _counts(client), _masked(heaps, cluster.layout)


def _read_heap(node):
    node.attach()
    try:
        return node.read_direct(node.base, node.size)
    finally:
        node.detach()


def _real_run(flags, log):
    """The counts, the verbs logged until the client's posts settled, and
    the masked heaps; the sweep asks over the control channel, so it
    logs no verb."""
    with RealClusterHarness(
        capacity_objects=CAPACITY, num_clients=1, num_memory_nodes=NODES,
        seed=SEED, **flags,
    ) as harness:
        async def run():
            cluster = RealCluster(harness.descriptor())
            (client,) = cluster.add_clients(1)
            try:
                await _launch(cluster.engine, client)["process"]
                await cluster.engine.drain_background()
                verbs = list(log)
                invariants.sweep(cluster)
                heaps = [_read_heap(node) for node in cluster.nodes]
            finally:
                await cluster.aclose()
            return _counts(client), verbs, _masked(heaps, cluster.layout)

        result = asyncio.run(run())
    assert harness.leak_report()["clean"]
    return result


@pytest.fixture
def verb_log(monkeypatch):
    log = []
    _record_verbs(monkeypatch, log)
    return log


def _assert_one_run(verb_log, flags):
    sim_counts, sim_heaps = _sim_run(flags)
    sim = list(verb_log)
    verb_log.clear()
    real_counts, real, real_heaps = _real_run(flags, verb_log)

    hits, misses, evictions, regrets = sim_counts
    assert hits and misses and evictions and regrets  # it did work
    first = next(
        (i for i, (a, b) in enumerate(zip(sim, real)) if a != b),
        min(len(sim), len(real)),
    )
    assert first == len(sim) == len(real), (
        f"first divergence at verb {first} of {len(sim)} (sim) and "
        f"{len(real)} (real): sim {sim[first:first + 3]}, "
        f"real {real[first:first + 3]}"
    )
    assert real_counts == sim_counts
    for node_id, (sim_heap, real_heap) in enumerate(zip(sim_heaps, real_heaps)):
        if sim_heap != real_heap:
            at = next(i for i, (a, b) in enumerate(zip(sim_heap, real_heap))
                      if a != b)
            pytest.fail(
                f"node {node_id} heaps differ first at offset {at}: sim "
                f"{sim_heap[at:at + 8].hex()}, real {real_heap[at:at + 8].hex()}"
            )


def test_one_client_issues_the_same_verbs_on_both_substrates(verb_log):
    _assert_one_run(verb_log, VARIANTS["ditto (full)"])


def test_every_ablation_runs_the_same_on_both_substrates(verb_log):
    _assert_one_run(verb_log, VARIANTS["-all"])
