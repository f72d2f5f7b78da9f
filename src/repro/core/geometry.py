"""Cluster memory geometry: the pure arithmetic both substrates share.

The sim deployment (:class:`~repro.core.cache.DittoCluster`) and the
real-process launcher (:mod:`repro.runtime`) must agree *exactly* on how a
cluster's address space is laid out — hash-table geometry, per-object block
footprint, budget bytes, heap split across memory nodes, the node-0 reserve
for fixed structures — or a client of one substrate cannot address memory
served by the other.  This module is that single source of truth: a pure
function of the construction parameters with no engine or process
dependencies, so a launcher can compute the plan in one process and a
client can recompute the identical plan from the same scalars in another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..memory.allocator import ClientAllocator
from ..memory.node import BLOCK_SIZE
from .config import DittoConfig
from .history import HISTORY_ENTRY_BYTES
from .layout import DittoLayout, object_span
from .policies import make_policy

#: Hash-table slots allocated per cached object (object + history + slack).
SLOT_FACTOR = 4.0


def ext_schema(policy_names: Sequence[str]) -> Tuple[str, ...]:
    """Extension metadata schema: union of the experts' ext fields."""
    fields: List[str] = []
    for name in policy_names:
        for field in make_policy(name).ext_fields:
            if field not in fields:
                fields.append(field)
    return tuple(fields)


@dataclass
class ClusterPlan:
    """The resolved geometry of one Ditto deployment."""

    capacity_objects: int
    max_capacity_objects: int
    object_bytes: int
    segment_bytes: int
    num_memory_nodes: int
    ext_fields: Tuple[str, ...]
    #: Allocation footprint of one object at the configured size.
    block_bytes_per_object: int
    #: Initial cache budget (grows up to max_capacity via resize_memory).
    budget_bytes: int
    layout: DittoLayout
    history_size: int
    #: Node-0 bytes reserved for fixed structures (hash table, history
    #: counter, and — for the LWH ablation — the history table after them).
    reserve: int
    heap_per_node: int
    #: ``(node_id, base, size)`` for each memory node, bases contiguous.
    node_ranges: List[Tuple[int, int, int]]


def plan_cluster(
    capacity_objects: int,
    object_bytes: int,
    num_clients: int,
    config: Optional[DittoConfig] = None,
    num_memory_nodes: int = 1,
    segment_bytes: int = 256 * 1024,
    max_capacity_objects: Optional[int] = None,
) -> ClusterPlan:
    """Compute the deployment geometry (see :class:`ClusterPlan`)."""
    if num_memory_nodes < 1:
        raise ValueError("need at least one memory node")
    if capacity_objects < 1:
        raise ValueError("capacity must be at least one object")
    config = config or DittoConfig()
    fields = ext_schema(config.policies)

    # Cache budget: capacity in bytes at the configured object size.
    est_span = object_span(0, object_bytes, 8 * len(fields))
    block_bytes_per_object = ClientAllocator.blocks_for(est_span) * BLOCK_SIZE

    max_capacity = max_capacity_objects or capacity_objects
    if max_capacity < capacity_objects:
        raise ValueError("max_capacity_objects below initial capacity")

    # Hash-table geometry: SLOT_FACTOR slots per cached object so live
    # objects plus unexpired history entries fit comfortably, sized for
    # the provisioned maximum so memory can grow without re-hashing.
    total_slots = max(
        int(max_capacity * SLOT_FACTOR),
        2 * DittoLayout.SLOTS_PER_BUCKET,
    )
    num_buckets = -(-total_slots // DittoLayout.SLOTS_PER_BUCKET)
    layout = DittoLayout(base=0, num_buckets=num_buckets)
    history_size = config.history_size or capacity_objects

    reserve = layout.reserved_bytes
    if not config.use_lwh:
        reserve += history_size * HISTORY_ENTRY_BYTES

    # Heap: provisioned-maximum bytes plus slack for in-flight segments
    # and size-class fragmentation, split across the memory nodes.
    heap_bytes = (
        2 * max_capacity * block_bytes_per_object
        + 2 * max(num_clients, 1) * segment_bytes
        + (1 << 20)
    )
    heap_per_node = -(-heap_bytes // num_memory_nodes)
    node_ranges: List[Tuple[int, int, int]] = []
    base = 0
    for node_id in range(num_memory_nodes):
        size = heap_per_node + (reserve if node_id == 0 else 0)
        node_ranges.append((node_id, base, size))
        base += size

    return ClusterPlan(
        capacity_objects=capacity_objects,
        max_capacity_objects=max_capacity,
        object_bytes=object_bytes,
        segment_bytes=segment_bytes,
        num_memory_nodes=num_memory_nodes,
        ext_fields=fields,
        block_bytes_per_object=block_bytes_per_object,
        budget_bytes=capacity_objects * block_bytes_per_object,
        layout=layout,
        history_size=history_size,
        reserve=reserve,
        heap_per_node=heap_per_node,
        node_ranges=node_ranges,
    )
