"""Transport conformance: one suite, both substrates (DESIGN §3.7).

Every test here runs twice — once against the sim substrate
(:class:`repro.rdma.verbs.RdmaEndpoint` on a discrete-event engine) and
once against the real substrate (:class:`repro.runtime.client.RealEndpoint`
talking to a live ``repro.runtime.server`` process over its ``AF_UNIX``
address and shared memory).  The assertions are verb-level: byte semantics,
atomic old-value returns and 64-bit wrap, controller RPC behavior, fence
NACKs, and failure surfacing.  The portable layers above the transport
are correct only if both substrates pass identical assertions.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
import time
import uuid

import pytest

from repro.core.elasticity import EpochFence
from repro.memory import Controller, MemoryAccessError, MemoryNode, MemoryPool
from repro.memory.controller import OutOfMemoryError
from repro.rdma import RdmaEndpoint
from repro.rdma.verbs import NodeUnavailable, StaleEpoch, VerbTimeout
from repro.runtime.client import (
    NodeHandle,
    RealEndpoint,
    WallClockRuntime,
    drive,
)
from repro.runtime.harness import RealClusterHarness, control_rpc
from repro.sim import Engine
from repro.sim.faults import (
    DropWindow,
    FaultInjector,
    FaultPlan,
    LatencySpike,
    NodeOutage,
)

HEAP_SIZE = 1 << 16
RESERVE = 4 * 1024
SCRATCH = 64  # raw-verb playground inside the controller reserve


class SimSubstrate:
    name = "sim"

    def __init__(self):
        self.engine = Engine()
        self.node = MemoryNode(self.engine, size=HEAP_SIZE)
        Controller(self.node, cores=1, reserve=RESERVE)
        self.injector = FaultInjector(self.engine)
        self.ep = RdmaEndpoint(
            self.engine, MemoryPool([self.node]), faults=self.injector
        )
        self.rpc_node = self.node

    def run(self, gen):
        return self.engine.run_process(gen)

    def settle(self):
        self.engine.run()

    def arm_timeouts(self):
        self.injector.load(FaultPlan(drops=(DropWindow(0.0, 1e12),)))

    def make_unreachable(self):
        self.injector.load(FaultPlan(outages=(NodeOutage(0, 0.0, 1e12),)))
        return self.ep, self.rpc_node

    def arm_plan(self, plan):
        self.injector.load(plan)

    def disarm_plan(self):
        self.injector.load(FaultPlan())

    def bounce(self):
        # A sim node bounce is an outage window that has already closed:
        # DRAM contents persist by construction, nothing to restart.
        pass

    def close(self):
        pass


class RealSubstrate:
    name = "real"

    def __init__(self):
        self._argv = [
            sys.executable, "-m", "repro.runtime.server",
            "--node-id", "0", "--base", "0", "--size", str(HEAP_SIZE),
            "--reserve", str(RESERVE),
            "--run-id", f"conf-{uuid.uuid4().hex[:8]}",
        ]
        self.proc = subprocess.Popen(
            self._argv,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        assert line.startswith("DITTO-NODE "), line
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        self.rpc_node = NodeHandle(
            0, 0, HEAP_SIZE, fields["unix"], fields["shm"]
        )
        self.loop = asyncio.new_event_loop()
        self.runtime = WallClockRuntime()
        self.ep = RealEndpoint(self.runtime, [self.rpc_node])

    def run(self, gen):
        return self.loop.run_until_complete(drive(gen))

    def settle(self):
        self.loop.run_until_complete(self.runtime.drain_background())

    def arm_timeouts(self):
        # A wedged controller: the gate holds every RPC far past the verb
        # timeout, so every subsequent RPC on this endpoint expires.
        self.arm_plan(FaultPlan(spikes=(
            LatencySpike(0.0, 1e12, extra_us=5e6, verbs=("rpc",)),
        )))
        self.ep.timeout_s = 0.2

    def make_unreachable(self):
        # A node handle whose address nothing is bound to.
        dead = NodeHandle(
            0, 0, HEAP_SIZE, f"@ditto-conf-unbound-{uuid.uuid4().hex[:8]}"
        )
        return RealEndpoint(self.runtime, [dead]), dead

    def arm_plan(self, plan):
        # Arm the server's in-process fault gate with the very plan the
        # sim injector loads, over the control socket; parity plans are
        # authored in wall-µs, so no compile_wall scaling here
        # (test_chaos.py covers that).  The verb timeout shrinks so a gate
        # drop expires quickly.
        self._saved_timeout = self.ep.timeout_s
        self.ep.timeout_s = 0.3
        control_rpc(self.rpc_node.key, "__chaos_load__",
                    (plan.to_dict(), time.time()))

    def disarm_plan(self):
        control_rpc(self.rpc_node.key, "__chaos_stop__")
        self.ep.timeout_s = self._saved_timeout

    def bounce(self):
        # SIGKILL, then restart-and-adopt: the shared-memory heap survives
        # the kill, the replacement rebuilds from it and binds the same
        # address, and the endpoint's broken connection heals via resend.
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()
        self.proc = subprocess.Popen(
            self._argv + ["--adopt"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        assert line.startswith("DITTO-NODE "), line
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        assert fields["unix"] == self.rpc_node.key

    def close(self):
        self.loop.run_until_complete(self.ep.aclose())
        self.loop.close()
        self.proc.terminate()
        self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self.proc.stderr.close()


@pytest.fixture(params=["sim", "real"])
def substrate(request):
    sub = SimSubstrate() if request.param == "sim" else RealSubstrate()
    yield sub
    sub.close()


def test_write_read_roundtrip(substrate):
    ep = substrate.ep

    def flow():
        yield from ep.write(SCRATCH, b"conformance")
        return (yield from ep.read(SCRATCH, 11))

    assert substrate.run(flow()) == b"conformance"


def test_fresh_memory_reads_as_zeros(substrate):
    ep = substrate.ep

    def flow():
        return (yield from ep.read(SCRATCH + 256, 16))

    assert substrate.run(flow()) == bytes(16)


def test_cas_returns_old_value_and_applies_once(substrate):
    ep = substrate.ep
    addr = SCRATCH + 512

    def flow():
        first = yield from ep.cas(addr, 0, 7)
        second = yield from ep.cas(addr, 0, 9)  # stale expected -> no swap
        raw = yield from ep.read(addr, 8)
        return first, second, int.from_bytes(raw, "little")

    assert substrate.run(flow()) == (0, 7, 7)


def test_write_then_cas_is_the_write_then_the_cas(substrate):
    """The chain returns what ``cas`` returns, leaves the bytes ``write``
    leaves, and counts one of each — however the substrate ships it.  A
    chain that loses its CAS has still made its WRITE: the order is
    WRITE, then CAS, and the CAS does not gate the WRITE."""
    ep = substrate.ep
    word, block = SCRATCH + 1536, SCRATCH + 1600

    def flow():
        bare = yield from ep.cas(word + 8, 0, 7)
        won = yield from ep.write_then_cas(block, b"chained!", word, 0, 7)
        lost = yield from ep.write_then_cas(block, b"replaced", word, 0, 9)
        raw = yield from ep.read(word, 8)
        data = yield from ep.read(block, 8)
        return bare, won, lost, int.from_bytes(raw, "little"), data

    before = ep.counters.as_dict()
    assert substrate.run(flow()) == (0, 0, 7, 7, b"replaced")
    after = ep.counters.as_dict()
    assert after["rdma_write"] - before.get("rdma_write", 0) == 2
    assert after["rdma_cas"] - before.get("rdma_cas", 0) == 2 + 1


def test_a_write_fence_nacks_the_whole_chain(substrate):
    ep = substrate.ep
    word, block = SCRATCH + 1664, SCRATCH + 1728
    fence = EpochFence()
    fence.fence_writes(0, HEAP_SIZE, 0)
    ep.fence = fence

    def chain():
        yield from ep.write_then_cas(block, b"fenced!!", word, 0, 7)

    def look():
        return (yield from ep.read(word, 72))

    with pytest.raises(StaleEpoch):
        substrate.run(chain())
    ep.fence = None
    assert substrate.run(look()) == bytes(72)  # neither verb applied


def test_faa_returns_old_and_wraps_mod_2_64(substrate):
    ep = substrate.ep
    addr = SCRATCH + 1024

    def flow():
        a = yield from ep.faa(addr, 5)
        b = yield from ep.faa(addr, 3)
        yield from ep.write(addr, ((1 << 64) - 1).to_bytes(8, "little"))
        old = yield from ep.faa(addr, 2)
        raw = yield from ep.read(addr, 8)
        return a, b, old, int.from_bytes(raw, "little")

    assert substrate.run(flow()) == (0, 5, (1 << 64) - 1, 1)


def test_a_misaligned_atomic_is_refused_and_touches_nothing(substrate):
    """RDMA atomics need an 8-byte-aligned target: a CAS or FAA off the
    boundary fails as an access error on both substrates, and no byte of
    the words it straddles changes."""
    ep = substrate.ep
    addr = SCRATCH + 1792
    pattern = bytes(range(1, 17))

    def setup():
        yield from ep.write(addr, pattern)

    def cas():
        return (yield from ep.cas(addr + 4, 0, 7))

    def faa():
        return (yield from ep.faa(addr + 3, 1))

    def look():
        return (yield from ep.read(addr, 16))

    substrate.run(setup())
    for verb in (cas, faa):
        with pytest.raises(MemoryAccessError):
            substrate.run(verb())
    assert substrate.run(look()) == pattern


def test_rpc_alloc_list_free_semantics(substrate):
    ep, node = substrate.ep, substrate.rpc_node

    def flow():
        addr = yield from ep.rpc(node, "alloc_segment", (4096, 3))
        granted = yield from ep.rpc(node, "list_segments", 3)
        yield from ep.rpc(node, "free_segment", (addr, 4096))
        after = yield from ep.rpc(node, "list_segments", 3)
        return addr, list(granted), list(after)

    addr, granted, after = substrate.run(flow())
    assert addr >= RESERVE  # grants never overlap the reserved region
    assert (addr, 4096) in granted
    assert (addr, 4096) not in after


def test_rpc_exhaustion_surfaces_oom(substrate):
    ep, node = substrate.ep, substrate.rpc_node

    def flow():
        yield from ep.rpc(node, "alloc_segment", (2 * HEAP_SIZE, 3))

    with pytest.raises(OutOfMemoryError):
        substrate.run(flow())


def test_metadata_is_the_rpc(substrate):
    """Controller state has one route, the plain RPC: an exact grant list,
    an empty list after the free, one ``rdma_rpc`` per call and the OOM
    surfaced, on both substrates."""
    ep, node = substrate.ep, substrate.rpc_node

    def flow():
        addr = yield from ep.rpc(node, "alloc_segment", (4096, 5))
        granted = yield from ep.rpc(node, "list_segments", 5)
        yield from ep.rpc(node, "free_segment", (addr, 4096))
        after = yield from ep.rpc(node, "list_segments", 5)
        return addr, list(granted), list(after)

    before = ep.counters.as_dict().get("rdma_rpc", 0)
    addr, granted, after = substrate.run(flow())
    assert granted == [(addr, 4096)]
    assert after == []
    assert ep.counters.as_dict()["rdma_rpc"] == before + 4

    def too_much():
        yield from ep.rpc(node, "alloc_segment", (2 * HEAP_SIZE, 5))

    with pytest.raises(OutOfMemoryError):
        substrate.run(too_much())


def test_fence_nacks_mutations_with_stale_epoch(substrate):
    ep = substrate.ep
    fence = EpochFence()
    fence.advance(2)
    fence.fence_writes(0, HEAP_SIZE, 0)
    ep.fence = fence
    addr = SCRATCH + 2048

    def write_flow():
        yield from ep.write(addr, b"x")

    def cas_flow():
        yield from ep.cas(addr, 0, 1)

    def read_flow():
        return (yield from ep.read(addr, 1))

    for flow in (write_flow, cas_flow):
        with pytest.raises(StaleEpoch) as err:
            substrate.run(flow())
        assert err.value.epoch == 2
    # Draining fences only mutations: reads still pass ...
    assert substrate.run(read_flow()) == b"\x00"
    # ... until the node is retired, when everything NACKs.
    fence.retire(0, HEAP_SIZE, 0)
    with pytest.raises(StaleEpoch):
        substrate.run(read_flow())
    ep.fence = None


def test_posts_return_none_and_land(substrate):
    ep = substrate.ep
    addr = SCRATCH + 2560

    def post():
        return ep.post_write(addr, b"posted!!"), ep.post_faa(addr + 8, 3)
        yield  # pragma: no cover — makes this a generator

    def look():
        return (yield from ep.read(addr, 16))

    assert substrate.run(post()) == (None, None)
    substrate.settle()
    assert substrate.run(look()) == b"posted!!" + (3).to_bytes(8, "little")


def test_fenced_background_posts_are_dropped_silently(substrate):
    ep = substrate.ep
    fence = EpochFence()
    fence.fence_writes(0, HEAP_SIZE, 0)
    ep.fence = fence
    before = ep.counters.get("fenced_post_dropped")

    def flow():
        ep.post_write(SCRATCH + 3000, b"doomed")
        return None
        yield  # pragma: no cover — makes this a generator

    substrate.run(flow())
    substrate.settle()
    assert ep.counters.get("fenced_post_dropped") == before + 1
    ep.fence = None


def test_a_delay_is_the_one_portable_wait(substrate):
    clock = substrate.ep.engine  # the sim engine or the wall-clock runtime

    def pause():
        started = clock.now
        yield 500.0
        return started, clock.now

    started, resumed = substrate.run(pause())
    if substrate.name == "sim":
        assert resumed == started + 500.0
    else:
        assert resumed - started >= 500.0

    def rewind():
        yield -1.0
        return "resumed"

    # Time cannot run backwards: the sim raises, the real runner throws
    # its "cannot execute" error into the generator and the op fails.
    with pytest.raises(RuntimeError, match=r"-1\.0"):
        substrate.run(rewind())


def test_timeouts_surface_as_verb_timeout(substrate):
    substrate.arm_timeouts()
    ep, node = substrate.ep, substrate.rpc_node

    def flow():
        yield from ep.rpc(node, "granted_segments", None)

    with pytest.raises(VerbTimeout):
        substrate.run(flow())


def test_same_plan_drop_surfaces_as_verb_timeout(substrate):
    # One FaultPlan, two substrates: a dropped verb never executes, so the
    # client observes silence and times out — on the sim via the injector,
    # on the real substrate via the server's fault gate swallowing the
    # request frame mid-verb.
    plan = FaultPlan(drops=(DropWindow(0.0, 1e12, verbs=("read",)),))
    substrate.arm_plan(plan)
    ep = substrate.ep

    def flow():
        return (yield from ep.read(SCRATCH, 8))

    with pytest.raises(VerbTimeout):
        substrate.run(flow())
    substrate.disarm_plan()
    assert substrate.run(flow()) == bytes(8)

    # The chain is one more verb to the plan: a window on its CAS times
    # the chain out, and the word is not swapped.
    word, block = SCRATCH + 1792, SCRATCH + 1856
    substrate.arm_plan(FaultPlan(drops=(DropWindow(0.0, 1e12, verbs=("cas",)),)))

    def chain():
        return (yield from ep.write_then_cas(block, b"dropped!", word, 0, 7))

    def look():
        return (yield from ep.read(word, 8))

    with pytest.raises(VerbTimeout):
        substrate.run(chain())
    substrate.disarm_plan()
    assert substrate.run(look()) == bytes(8)
    assert substrate.run(chain()) == 0
    assert substrate.run(look()) == (7).to_bytes(8, "little")


def test_same_plan_outage_surfaces_as_node_unavailable(substrate):
    # The same outage window downs the node on both substrates.  On the
    # real one this is the connection-reset-between-frames path: the gate
    # closes the socket before executing, every resend meets another
    # reset, and the bounded retry loop converts that to NodeUnavailable.
    plan = FaultPlan(outages=(NodeOutage(0, 0.0, 1e12),))
    substrate.arm_plan(plan)
    ep = substrate.ep

    def flow():
        return (yield from ep.read(SCRATCH, 8))

    with pytest.raises(NodeUnavailable):
        substrate.run(flow())
    substrate.disarm_plan()
    assert substrate.run(flow()) == bytes(8)


def test_node_bounce_preserves_memory(substrate):
    # An MN crash/restart cycle loses no committed bytes: the real server
    # is SIGKILLed and readopts its surviving shared-memory heap; the sim
    # models the same contract by construction (outages never clear DRAM).
    ep = substrate.ep
    addr = SCRATCH + 3500

    def write_flow():
        yield from ep.write(addr, b"durable!")

    def read_flow():
        return (yield from ep.read(addr, 8))

    substrate.run(write_flow())
    substrate.bounce()
    assert substrate.run(read_flow()) == b"durable!"


def test_unreachable_node_surfaces_as_node_unavailable(substrate):
    ep, node = substrate.make_unreachable()

    def flow():
        yield from ep.read(SCRATCH, 8)

    def rpc_flow():
        yield from ep.rpc(node, "list_segments", 0)

    with pytest.raises(NodeUnavailable):
        substrate.run(flow())
    with pytest.raises(NodeUnavailable):
        substrate.run(rpc_flow())


def test_a_chain_is_one_frame_on_one_node_and_two_verbs_across_two():
    """The real substrate's one override: a link is a FIFO, so a chain
    whose addresses share a memory node is one frame there; two links
    order nothing between them, so a straddling chain is the default's
    two verbs.  Same results either way."""
    with RealClusterHarness(
        capacity_objects=256, num_clients=1, num_memory_nodes=2, seed=3
    ) as launched:
        first, second = (
            NodeHandle.from_dict(entry)
            for entry in launched.descriptor()["nodes"]
        )
        runtime = WallClockRuntime()
        ep = RealEndpoint(runtime, [first, second], timeout_s=5.0)
        word = first.base + first.size // 2
        near, far = word + 64, second.base + second.size // 2

        def chain(block, expected, new):
            old = yield from ep.write_then_cas(
                block, b"chained!", word, expected, new)
            return old, (yield from ep.read(block, 8))

        async def scenario():
            try:
                await runtime.connect(first)
                await runtime.connect(second)
                tallies = [runtime.link_stats()]
                results = []
                for block, expected, new in ((near, 0, 7), (far, 7, 9)):
                    results.append(await drive(chain(block, expected, new)))
                    tallies.append(runtime.link_stats())
                return results, tallies
            finally:
                await ep.aclose()

        results, (start, same_node, straddling) = asyncio.run(scenario())
    assert launched.leak_report()["clean"]
    assert results == [(0, b"chained!"), (7, b"chained!")]
    # the chain and the READ that checks it; then WRITE, CAS and the READ
    assert same_node["frames"] - start["frames"] == 1 + 1
    assert same_node["chained"] - start["chained"] == 1
    assert straddling["frames"] - same_node["frames"] == 2 + 1
    assert straddling["chained"] == same_node["chained"]
    counters = ep.counters.as_dict()
    assert (counters["rdma_write"], counters["rdma_cas"]) == (2, 2)
