"""Offline memory-accounting sweep: no leaked, lost, or double-owned bytes.

After a run quiesces (all client processes finished or crashed *and*
recovered), every byte the controllers ever granted must be accounted for by
exactly one of:

- **live** — referenced by an object slot of the hash table;
- **free** — on some client's local free lists, ready for reuse;
- **bump**  — the unused tail of a client's current bump segment;
- **spare** — a retired bump remainder or a region inherited via crash
  recovery (tracked but not carved for reuse).

The sweep also cross-checks the shared :class:`~repro.memory.allocator.
MemoryBudget`: ``used_bytes`` must equal the total size of live objects.
Chaos tests call this after crash storms to prove recovery leaks nothing;
it holds on healthy runs too, so any regression in the allocator or the
Set/Delete bookkeeping shows up even without fault injection.

The sweep is *offline*: it reads node memory directly at zero simulated
cost.  It is a test oracle, not a runtime mechanism.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import layout as L


class InvariantViolation(AssertionError):
    """The memory accounting of a quiesced cluster does not add up."""


def _client_regions(cluster) -> Tuple[List, List, List]:
    """Free-list, bump-tail, and spare intervals across every client.

    Migrations in flight (elastic node drains) hold memory through their own
    striped allocators until a survivor adopts them at retire time; those
    regions are part of the accounting too.
    """
    free: List[Tuple[int, int]] = []
    bump: List[Tuple[int, int]] = []
    spare: List[Tuple[int, int]] = []
    from ..memory.node import BLOCK_SIZE

    holders = [client.alloc for client in cluster.clients]
    holders.extend(migrator.alloc for migrator in cluster._active_migrators)
    for striped in holders:
        for alloc in striped.allocators:
            for nblocks, addrs in alloc._free.items():
                for addr in addrs:
                    free.append((addr, nblocks * BLOCK_SIZE))
            if alloc._bump_addr is not None and alloc._bump_addr < alloc._bump_end:
                bump.append((alloc._bump_addr, alloc._bump_end - alloc._bump_addr))
            spare.extend(alloc._spare)
    return free, bump, spare


def _live_objects(cluster) -> List[Tuple[int, int]]:
    """Blocks referenced by object slots of the hash table (node 0), from
    one read of the whole table."""
    lay = cluster.layout
    raw = cluster.read_node0(lay.table_addr, lay.table_bytes)
    table = L.Bucket(0, lay.table_addr, raw, lay.total_slots)
    return [
        (slot.pointer, slot.object_bytes)
        for slot in map(table.slot, table.objects())
    ]


def sweep(cluster) -> Dict[str, int]:
    """Check the memory-accounting invariants of a quiesced Ditto cluster.

    ``cluster`` is either substrate's
    :class:`~repro.core.client.ClusterBase`: it supplies ``clients``,
    ``budget``, ``layout``, the drains in flight, ``nodes`` (each with
    ``base``/``end``), the controllers' grants (``granted_segments``) and
    node 0's bytes (``read_node0``).

    Returns a summary dict on success; raises :class:`InvariantViolation`
    with a precise description of the first inconsistency otherwise.
    """
    for client in cluster.clients:
        if client._pending_block is not None or client._pending_budget:
            raise InvariantViolation(
                f"client {client.client_id} still holds in-flight op state "
                f"(block={client._pending_block}, "
                f"budget={client._pending_budget}B) — not quiesced, or its "
                "crash was never recovered"
            )

    granted = cluster.granted_segments()
    live = _live_objects(cluster)
    free, bump, spare = _client_regions(cluster)

    tagged = (
        [("live", a, s) for a, s in live]
        + [("free", a, s) for a, s in free]
        + [("bump", a, s) for a, s in bump]
        + [("spare", a, s) for a, s in spare]
    )

    # 1. No two regions overlap (a byte with two owners is corruption).
    ordered = sorted(tagged, key=lambda t: t[1])
    for (tag_a, addr_a, size_a), (tag_b, addr_b, _) in zip(ordered, ordered[1:]):
        if addr_a + size_a > addr_b:
            raise InvariantViolation(
                f"overlap: {tag_a} region [{addr_a}, {addr_a + size_a}) and "
                f"{tag_b} region starting at {addr_b}"
            )

    # 2a. Every region lies inside a *current* memory node: a region (or a
    # live slot pointer) into a node retired by an elastic removal means a
    # block leaked — or stayed double-owned — across an epoch change.
    spans = sorted((node.base, node.end) for node in cluster.nodes)
    for tag, addr, size in ordered:
        inside = any(base <= addr and addr + size <= end for base, end in spans)
        if not inside:
            raise InvariantViolation(
                f"{tag} region [{addr}, {addr + size}) lies outside every "
                "current memory node (dangling reference across an epoch "
                "change?)"
            )

    # 2b. Every region lies inside some granted segment.
    segs = sorted(granted)
    for tag, addr, size in ordered:
        inside = any(
            seg_addr <= addr and addr + size <= seg_addr + seg_size
            for seg_addr, seg_size in segs
        )
        if not inside:
            raise InvariantViolation(
                f"{tag} region [{addr}, {addr + size}) lies outside every "
                "granted segment"
            )

    # 3. The regions exactly tile the granted bytes: with no overlaps and
    # full containment, equal byte totals imply an exact partition — any
    # shortfall is a leak (granted bytes nobody tracks).
    granted_bytes = sum(size for _, size in granted)
    covered = {
        "live": sum(s for a, s in live),
        "free": sum(s for a, s in free),
        "bump": sum(s for a, s in bump),
        "spare": sum(s for a, s in spare),
    }
    covered_bytes = sum(covered.values())
    if covered_bytes != granted_bytes:
        raise InvariantViolation(
            f"leak: controllers granted {granted_bytes}B but only "
            f"{covered_bytes}B are accounted for ({covered})"
        )

    # 4. The budget ledger matches the table contents.
    if cluster.budget.used_bytes != covered["live"]:
        raise InvariantViolation(
            f"budget ledger drift: used_bytes={cluster.budget.used_bytes} "
            f"but the table references {covered['live']}B of objects"
        )

    return {
        "granted_bytes": granted_bytes,
        "live_bytes": covered["live"],
        "free_bytes": covered["free"],
        "bump_bytes": covered["bump"],
        "spare_bytes": covered["spare"],
        "live_objects": len(live),
    }


__all__ = ["InvariantViolation", "sweep"]
