"""Client-side deployment façade for the real substrate.

:class:`RealCluster` plays the role :class:`~repro.core.cache.DittoCluster`
plays on the sim substrate: it provides everything a
:class:`~repro.core.client.DittoClient` reads from its cluster — layout,
config, budget, node handles, counters — and implements the
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

from typing import Dict, List, Optional

from ..core.client import DittoClient
from ..core.config import DittoConfig
from ..core.geometry import plan_cluster
from ..memory.allocator import MemoryBudget
from ..obs import observer
from ..sim import CounterSet
from .client import NodeHandle, NodeHealth, RealEndpoint, WallClockRuntime


class RealCluster:
    """A Ditto deployment over live processes, from the client's seat."""

    def __init__(
        self,
        descriptor: Dict,
        runtime: Optional[WallClockRuntime] = None,
        timeout_s: float = 10.0,
        shm_reads: bool = False,
    ):
        self.descriptor = descriptor
        config_kwargs = dict(descriptor.get("config", {}))
        if "policies" in config_kwargs:
            config_kwargs["policies"] = tuple(config_kwargs["policies"])
        self.config = DittoConfig(**config_kwargs)
        if not (self.config.use_sfht and self.config.use_lwh):
            # The ablation paths read node memory in-process (no verb
            # layer); they exist to probe the paper's design points on the
            # sim substrate and are not portable.
            raise ValueError(
                "the real substrate requires use_sfht and use_lwh "
                "(ablation configs are sim-only)"
            )
        plan = plan_cluster(
            descriptor["capacity_objects"],
            descriptor["object_bytes"],
            descriptor["num_clients"],
            config=self.config,
            num_memory_nodes=len(descriptor["nodes"]),
            segment_bytes=descriptor["segment_bytes"],
            max_capacity_objects=descriptor.get("max_capacity_objects"),
        )
        self.plan = plan
        self.layout = plan.layout
        self.ext_fields = plan.ext_fields
        self.history_size = plan.history_size
        self.segment_bytes = plan.segment_bytes
        self.block_bytes_per_object = plan.block_bytes_per_object
        #: The budget is client-local admission control, exactly as on the
        #: sim substrate where it models the out-of-band quota service.
        self.budget = MemoryBudget(plan.budget_bytes)
        self.remote_history = None

        self.engine = runtime if runtime is not None else WallClockRuntime()
        self.counters = CounterSet()
        #: The process's hub, or None: a dark cluster's clients bind no
        #: latency histograms and time nothing.
        self.obs = observer.current()
        self.tracer = None
        self.fence = None
        self.consensus = None
        self.fault_injector = None
        self.membership = None
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
        self.seed = descriptor.get("seed", 0)
        self.object_count = 0
        self.clients: List[DittoClient] = []
        self._next_client_id = 0

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

    def add_clients(self, n: int) -> List[DittoClient]:
        """Join ``n`` client threads, each with its own endpoint; all of
        them send over the runtime's one link per memory node."""
        new = []
        for _ in range(n):
            client = DittoClient(
                self, client_id=self._next_client_id, seed=self.seed
            )
            self._next_client_id += 1
            new.append(client)
        self.clients.extend(new)
        return new

    async def aclose(self) -> None:
        """Close every client's endpoint: the first drains the runtime's
        posts and closes its links (once each), and every one unmaps its
        heaps."""
        for client in self.clients:
            await client.ep.aclose()

    # -- aggregated statistics (mirrors DittoCluster) ----------------------

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self.clients)

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self.clients)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "objects": self.object_count,
            "evictions": sum(c.evictions for c in self.clients),
            "regrets": sum(c.regrets for c in self.clients),
            "used_bytes": self.budget.used_bytes,
            "limit_bytes": self.budget.limit_bytes,
            "wall_time_us": self.engine.now,
            **{f"link_{k}": v for k, v in self.engine.link_stats().items()},
            **{k: float(v) for k, v in self.counters.as_dict().items()},
        }
