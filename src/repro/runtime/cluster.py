"""Client-side deployment façade for the real substrate.

:class:`RealCluster` inherits :class:`~repro.core.client.ClusterBase`, the
same base as the sim's :class:`~repro.core.cache.DittoCluster`: config,
geometry, budget, counters and the client registry exist once, and a
:class:`~repro.core.client.DittoClient` reads them alike on both.  What it
adds is the substrate: node handles, their shared liveness view, and the
``make_endpoint`` seam with :class:`~repro.runtime.client.RealEndpoint`,
so the *identical* client code paths (SFHT lookups, two-level allocation,
sampled adaptive eviction, lazy weight updates) execute against live
memory-node processes.

A RealCluster is built from a *descriptor*: the construction scalars plus
the node endpoints announced by the launcher
(:class:`~repro.runtime.harness.RealClusterHarness`).  Geometry is
recomputed locally through :func:`repro.core.geometry.plan_cluster`, the
same arithmetic the launcher used to size the heaps, so client and server
agree on every address without shipping the layout over the wire.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.client import ClusterBase
from ..core.config import DittoConfig
from ..core.geometry import plan_cluster
from .client import NodeHandle, NodeHealth, RealEndpoint, WallClockRuntime
from .harness import control_rpc


class RealCluster(ClusterBase):
    """A Ditto deployment over live processes, from the client's seat."""

    def __init__(
        self,
        descriptor: Dict,
        runtime: Optional[WallClockRuntime] = None,
        timeout_s: float = 10.0,
        shm_reads: bool = False,
    ):
        config_kwargs = dict(descriptor.get("config", {}))
        if "policies" in config_kwargs:
            config_kwargs["policies"] = tuple(config_kwargs["policies"])
        config = DittoConfig(**config_kwargs)
        plan = plan_cluster(
            descriptor["capacity_objects"],
            descriptor["object_bytes"],
            descriptor["num_clients"],
            config=config,
            num_memory_nodes=len(descriptor["nodes"]),
            segment_bytes=descriptor["segment_bytes"],
            max_capacity_objects=descriptor.get("max_capacity_objects"),
        )
        # The budget is client-local admission control, exactly as on the
        # sim substrate where it models the out-of-band quota service.
        super().__init__(config, descriptor.get("seed", 0), plan)

        self.engine = runtime if runtime is not None else WallClockRuntime()
        self.timeout_s = timeout_s
        self.shm_reads = shm_reads
        #: One liveness view shared by every endpoint: the first client
        #: (or the harness reaper) to notice a dead node spares all the
        #: others their timeouts, and recovery steers allocation back.
        self.health = NodeHealth(counters=self.counters)
        self.health.add_listener(self._on_health_change)

        self.nodes: List[NodeHandle] = [
            NodeHandle.from_dict(entry) for entry in descriptor["nodes"]
        ]
        expected = {
            (node_id, base, size) for node_id, base, size in plan.node_ranges
        }
        actual = {(n.node_id, n.base, n.size) for n in self.nodes}
        if expected != actual:
            raise ValueError(
                f"descriptor node ranges {sorted(actual)} do not match the "
                f"geometry plan {sorted(expected)}; launcher and client "
                "disagree on construction parameters"
            )
        self.node = self.nodes[0]

    # -- the substrate seam ------------------------------------------------

    def make_endpoint(self, client) -> RealEndpoint:
        return RealEndpoint(
            self.engine,
            self.nodes,
            counters=self.counters,
            timeout_s=self.timeout_s,
            shm_reads=self.shm_reads,
            health=self.health,
        )

    def _on_health_change(self) -> None:
        """Steer every client's striped allocator off down nodes.

        New blocks land on live nodes while a node is out (its cached
        objects surface as clean misses and get re-admitted elsewhere);
        when the node returns — outage window over, or restarted and
        adopted — allocation resumes across the full stripe.  If *every*
        node is down there is nothing to steer to, so leave the active
        set alone and let verbs fail on their own.
        """
        down = self.health.down_ids()
        active = [n.node_id for n in self.nodes if n.node_id not in down]
        if not active:
            return
        for client in self.clients:
            client.alloc.set_active(active)

    def granted_segments(self) -> List[Tuple[int, int]]:
        """Every node's journal-backed grant log, asked over the
        out-of-band control channel (no endpoint counter moves)."""
        return [
            seg
            for node in self.nodes
            for segs in control_rpc(node.key, "granted_segments").values()
            for seg in segs
        ]

    def read_node0(self, addr: int, length: int) -> bytes:
        """Read node 0's heap through its shared memory, mapping it for
        this read unless it is mapped already."""
        node0 = self.node
        attached_here = node0._seg is None
        node0.attach()
        try:
            return node0.read_direct(addr, length)
        finally:
            if attached_here:
                node0.detach()

    async def aclose(self) -> None:
        """Close every client's endpoint: the first drains the runtime's
        posts and closes its links (once each), and every one unmaps its
        heaps."""
        for client in self.clients:
            await client.ep.aclose()

    def _clock_stats(self) -> Dict[str, float]:
        return {
            "wall_time_us": self.engine.now,
            **{f"link_{k}": v for k, v in self.engine.link_stats().items()},
        }
