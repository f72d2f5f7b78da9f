"""The verb-level transport interface shared by both substrates.

Everything above this line — :class:`~repro.core.client.DittoClient`, the
allocators, the migrator, crash recovery, the consensus client — speaks one
narrow surface: *verbs as generators*.  A verb generator yields opaque
commands its substrate knows how to execute and returns the verb's result;
callers compose them with ``yield from`` and never look at the yielded
commands.  That discipline is what lets the very same client code run on
two substrates:

* the **sim substrate** (:class:`~repro.rdma.verbs.RdmaEndpoint`) yields
  delays (bare numbers) to the discrete-event engine,
  with NIC queueing and verb latency fully cost-modelled;
* the **real substrate** (:class:`~repro.runtime.client.RealEndpoint`)
  yields plain verb requests that :func:`~repro.runtime.client.drive` puts
  on the process's link to a live memory-node process (sockets and
  ``multiprocessing.shared_memory``); the generator is resumed from the
  link when the response arrives, as the engine resumes it from an event.

The contract every implementation must honour (DESIGN §3.7):

* ``read``/``write``/``cas``/``faa`` address one global byte-addressable
  space; CAS/FAA act on little-endian 8-byte words and return the *old*
  value (CAS succeeded iff old == expected; FAA wraps mod 2^64).
* ``write_then_cas(addr, data, cas_addr, expected, new)`` is a two-verb
  work-request chain: the WRITE, then the CAS, in that order, returning
  the CAS's old value.  The CAS needs the WRITE to have *landed*, not its
  result, so a substrate may ship both with one doorbell; each verb is
  still fenced, counted and fault-judged as itself, in order, and a
  failed WRITE takes the CAS behind it down with it.  Built here from
  ``write`` and ``cas``; the real substrate overrides it with one frame
  when both addresses live on one memory node.
* ``rpc(node, op, payload)`` invokes a named controller operation on one
  memory node and returns its result; controller-side errors surface as
  the same exception types on both substrates
  (:class:`~repro.memory.controller.OutOfMemoryError`,
  :class:`~repro.rdma.verbs.StaleEpoch`).
* Failures surface *inside* the generator at the yield point —
  :class:`~repro.rdma.verbs.VerbTimeout` for a lost completion,
  :class:`~repro.rdma.verbs.NodeUnavailable` for a dead node — so client
  retry machinery is substrate-blind.
* The ``fence`` slot holds an :class:`~repro.core.elasticity.EpochFence`
  (or None); verbs check it client-side *before* address resolution and
  NACK with :class:`~repro.rdma.verbs.StaleEpoch`.
* The ``consensus`` slot holds a
  :class:`~repro.core.consensus.GroupClient` (or None) for routing
  metadata commands through a replicated controller group.
* ``metadata(node, op, payload)`` is the one route to controller *state*
  (segment grants, the membership table, the expert weights): the RPC
  above while ``consensus`` is None, else the same operation committed
  through the replicated log.  Callers never test ``consensus``
  themselves.  Built here from ``rpc`` and the slot, not per substrate.
* ``post_write``/``post_faa`` are fire-and-forget: the verb runs off the
  caller's critical path (two engine callbacks on the sim substrate, a
  frame on the process's link to the memory node on the real one), with
  injected faults and fence NACKs swallowed and counted.

``charge`` (timing-only NIC accounting for cost-modelled baselines) is a
sim-substrate extra, not part of the portable contract — portable code must
not rely on it.

Clusters hand out transports via ``cluster.make_endpoint(client)``, the
single seam where the substrate is chosen.
"""

from __future__ import annotations

from typing import Generator


class VerbTransport:
    """Abstract verb surface; see the module docstring for the contract.

    Implementations also expose ``engine`` (an object with ``now``/``_now``
    in microseconds), ``counters`` (a
    :class:`~repro.sim.CounterSet`), and the mutable ``fence``/``tracer``/
    ``consensus`` slots.
    """

    __slots__ = ()

    def read(self, addr: int, length: int) -> Generator:
        """READ: returns ``length`` bytes from remote memory."""
        raise NotImplementedError

    def write(self, addr: int, data: bytes) -> Generator:
        """WRITE: stores ``data`` at ``addr``."""
        raise NotImplementedError

    def cas(self, addr: int, expected: int, new: int) -> Generator:
        """CAS on an 8-byte word; returns the old value."""
        raise NotImplementedError

    def faa(self, addr: int, delta: int) -> Generator:
        """FAA on an 8-byte word (mod 2^64); returns the old value."""
        raise NotImplementedError

    def write_then_cas(self, addr: int, data: bytes, cas_addr: int,
                       expected: int, new: int) -> Generator:
        """WRITE, then CAS, in that order; returns the CAS's old value."""
        yield from self.write(addr, data)
        return (yield from self.cas(cas_addr, expected, new))

    def rpc(self, node, op: str, payload=None, size: int = 64) -> Generator:
        """Invoke controller operation ``op`` on ``node``; returns its result."""
        raise NotImplementedError

    def metadata(self, node, op: str, payload=None, size: int = 64) -> Generator:
        """Run metadata operation ``op`` on ``node``'s controller state,
        through the replicated controller group when one is armed.

        The log's command is flat, ``(op, node_id, *payload)``: a tuple or
        list payload is spliced in, any other is one field, None is none.
        """
        if self.consensus is None:
            return self.rpc(node, op, payload, size=size)
        if payload is None:
            payload = ()
        elif not isinstance(payload, (tuple, list)):
            payload = (payload,)
        return self.consensus.submit((op, node.node_id, *payload))

    def post_write(self, addr: int, data: bytes):
        """Fire-and-forget WRITE; returns None.  Portable code cannot
        wait for a post, learn its fate or cancel it."""
        raise NotImplementedError

    def post_faa(self, addr: int, delta: int):
        """Fire-and-forget FAA; returns None, like :meth:`post_write`."""
        raise NotImplementedError
