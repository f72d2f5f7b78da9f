"""The real-process substrate (DESIGN §3.7).

Runs the *same* :class:`~repro.core.client.DittoClient`, allocator,
controller, and memory-node code as the simulator, but on live operating-
system processes: each memory node is a separate process whose heap is a
POSIX shared-memory segment, verbs travel as length-prefixed
frames over a local ``AF_UNIX`` socket — each node has one address, an
abstract-namespace name derived from its heap's — served by one
single-threaded readiness loop (so CAS/FAA linearize by construction, like
the NIC serialization point in the sim), and clients' verb generators are
stepped by a runner that puts each verb's frame on the process's link and
resumes from its response.

Layout:

- :mod:`.wire` — framed wire protocol (opcodes, request-id multiplexing);
- :mod:`.server` — the memory-node server process
  (``python -m repro.runtime.server``);
- :mod:`.launcher` — the process that forks memory nodes from one
  interpreter that has already imported :mod:`.server`;
- :mod:`.client` — :class:`WallClockRuntime` (clock, posts and the
  process's one link per memory node), :class:`RealEndpoint`, and
  :func:`drive`, which runs a verb generator from the link;
- :mod:`.cluster` — :class:`RealCluster`, the client-side deployment
  façade that :class:`~repro.core.client.DittoClient` plugs into;
- :mod:`.harness` — :class:`RealClusterHarness`, launching and reaping
  node processes with leak accounting;
- :mod:`.loadgen` — concurrent load generator with wall-clock latency
  histograms (``python -m repro.runtime.loadgen``);
- :mod:`.validate` — the sim-vs-real throughput-ordering harness
  (``python -m repro.runtime.validate``).

``python -m repro.serve`` is the user-facing launcher over all of this.
"""

from .. import _exports

_EXPORTS = {
    "RealCluster": ".cluster",
    "RealClusterHarness": ".harness",
    "RealEndpoint": ".client",
    "WallClockRuntime": ".client",
    "drive": ".client",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _exports.lazy_exports(globals(), _EXPORTS)
