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
and the hit, eviction and regret counts, must be equal.
"""

from __future__ import annotations

import asyncio
import hashlib

import pytest

from repro.bench.runner import Harness, zipf_feed
from repro.bench.systems import build_ditto
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


def _sim_run():
    cluster = build_ditto(CAPACITY, 1, num_memory_nodes=NODES, seed=SEED)
    client = cluster.clients[0]
    _launch(cluster.engine, client)
    cluster.engine.run()
    return _counts(client)


def _real_run():
    with RealClusterHarness(
        capacity_objects=CAPACITY, num_clients=1, num_memory_nodes=NODES,
        seed=SEED,
    ) as harness:
        async def run():
            cluster = RealCluster(harness.descriptor())
            (client,) = cluster.add_clients(1)
            try:
                await _launch(cluster.engine, client)["process"]
            finally:
                await cluster.aclose()
            return _counts(client)

        counts = asyncio.run(run())
    assert harness.leak_report()["clean"]
    return counts


@pytest.fixture
def verb_log(monkeypatch):
    log = []
    _record_verbs(monkeypatch, log)
    return log


def test_one_client_issues_the_same_verbs_on_both_substrates(verb_log):
    sim_counts = _sim_run()
    sim = list(verb_log)
    verb_log.clear()
    real_counts = _real_run()
    real = list(verb_log)

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
