"""The one simulated testbed the DM baselines deploy on.

KVS, Shard-LRU (KVC, KVC-S) and CliqueMap each run, as in the paper's §5,
on one memory node with its pool and controller over the default fabric
profile.  :class:`DmDeployment` builds that node once for all three: a
subclass sizes it, names its ``client_class`` and its ``label`` (the
tracer's and the counters' component), and adds its own structures.
"""

from __future__ import annotations

from typing import List

from ..memory import Controller, MemoryNode, MemoryPool
from ..obs.observer import current as obs_current
from ..rdma.params import NetworkParams
from ..rdma.verbs import RdmaEndpoint
from ..sim import CounterSet, Engine
from ..sim.stats import hit_rate


class DmDeployment:
    """One memory node of ``node_bytes`` on a fresh engine, its first
    ``reserve`` bytes kept from segment allocation and its controller on
    ``cores`` cores.  The subclass calls :meth:`add_clients` once its own
    structures exist."""

    label: str
    client_class: type

    def __init__(self, node_bytes: int, reserve: int = 0, cores: int = 1):
        self.engine = Engine()
        self.params = NetworkParams()
        self.node = MemoryNode(self.engine, size=node_bytes, params=self.params)
        self.pool = MemoryPool([self.node])
        self.controller = Controller(self.node, cores=cores, reserve=reserve)
        self.counters = CounterSet()
        self.tracer = None
        obs = obs_current()
        if obs is not None:
            self.tracer = obs.bind(self.engine, label=self.label)
            self.controller.tracer = self.tracer
            obs.registry.bridge(
                self.counters, component=self.label, cluster=str(self.tracer.pid)
            )
        self.clients: List = []

    def add_clients(self, n: int) -> None:
        base = len(self.clients)
        self.clients.extend(self.client_class(self, base + i) for i in range(n))

    def make_endpoint(self) -> RdmaEndpoint:
        """A client's endpoint: the deployment's counters and tracer."""
        return RdmaEndpoint(
            self.engine, self.pool, self.params,
            counters=self.counters, tracer=self.tracer,
        )

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self.clients)

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self.clients)

    def hit_rate(self) -> float:
        return hit_rate(self.hits, self.misses)
