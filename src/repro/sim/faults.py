"""Deterministic, seed-driven fault injection, shared by both substrates.

A :class:`FaultPlan` is a declarative, JSON-serializable description of every
failure a simulation should suffer: verb drops and latency spikes at the RDMA
endpoint, memory-node outage windows, controller RPC failures, and
client-crash instants.  A :class:`FaultInjector` binds a plan to a clock — the
engine, or a memory-node server's wall clock — and answers point queries from
the instrumented layers ("does this verb, issued now against this node,
fail?").

Determinism: probabilistic faults draw from a private ``random.Random`` seeded
by the plan, and draws happen only for verbs that match an active window — so
the same seed and the same plan produce the same fault sequence, independent
of wall clock, process boundaries, or any other randomness in the simulation.
Because the plan is plain data, it can ride inside experiment parameters to
a pool worker.

The injector is *consulted*, never *in control*: layers that can fail call
:meth:`FaultInjector.verb_outcome` at issue time and implement their own
failure semantics (timeouts, exceptions, retries).  With no injector attached
(the default everywhere), no fault code runs at all — the zero-overhead
healthy path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Outcome kinds returned by :meth:`FaultInjector.verb_outcome`.
OK, DROP, DOWN = 0, 1, 2

_INF = float("inf")


def _tuple_of(items: Sequence) -> Tuple:
    return tuple(items) if not isinstance(items, tuple) else items


@dataclass(frozen=True)
class DropWindow:
    """Verbs issued inside the window are lost with probability ``prob``.

    ``node_id``/``verbs`` of None match any node / any verb.  A dropped verb
    never reaches the NIC: the client observes silence and times out.
    """

    start_us: float
    end_us: float
    prob: float = 1.0
    node_id: Optional[int] = None
    verbs: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.end_us < self.start_us:
            raise ValueError(f"empty drop window: [{self.start_us}, {self.end_us})")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {self.prob}")
        if self.verbs is not None:
            object.__setattr__(self, "verbs", _tuple_of(self.verbs))


@dataclass(frozen=True)
class LatencySpike:
    """Verbs issued inside the window pay ``extra_us`` before reaching the NIC
    (congestion, PFC pauses, a misbehaving switch)."""

    start_us: float
    end_us: float
    extra_us: float
    node_id: Optional[int] = None
    verbs: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.extra_us < 0:
            raise ValueError(f"negative latency spike: {self.extra_us}")
        if self.verbs is not None:
            object.__setattr__(self, "verbs", _tuple_of(self.verbs))


@dataclass(frozen=True)
class NodeOutage:
    """The memory node is unreachable for the window (crash-recovery cycle).

    The node's DRAM contents survive — the window models unreachability
    (NIC/link failure, controller reboot), not data loss.  Every verb against
    the node fails with ``NodeUnavailable`` after the verb timeout.
    """

    node_id: int
    start_us: float
    end_us: float

    def __post_init__(self) -> None:
        if self.end_us < self.start_us:
            raise ValueError(f"empty outage window: [{self.start_us}, {self.end_us})")


@dataclass(frozen=True)
class RpcFailure:
    """Controller RPCs inside the window fail with probability ``prob``
    (the weak controller CPU stalls or drops the request)."""

    start_us: float
    end_us: float
    prob: float = 1.0
    node_id: Optional[int] = None


@dataclass(frozen=True)
class ClientCrash:
    """Kill client ``client_index``'s driver at ``at_us``, mid-operation."""

    client_index: int
    at_us: float


@dataclass(frozen=True)
class ControllerCrash:
    """Controller replica ``replica_id`` is frozen for the window.

    Models a crash-recovery cycle of one replica of the replicated metadata
    service (``repro.core.consensus``): the replica neither sends nor
    receives messages and serves no client submissions while the window is
    open, but its persistent raft state (term, vote, log) survives — on
    recovery it rejoins as a follower and catches up.
    """

    replica_id: int
    start_us: float
    end_us: float

    def __post_init__(self) -> None:
        if self.end_us < self.start_us:
            raise ValueError(
                f"empty controller-crash window: [{self.start_us}, {self.end_us})"
            )


@dataclass(frozen=True)
class Partition:
    """Controller replicas in different ``groups`` cannot exchange messages.

    ``groups`` is a tuple of disjoint replica-id tuples; replicas not listed
    in any group form one implicit remainder group.  Within a group traffic
    flows normally.  Client-to-replica RPCs ride a separate (client-side)
    network and are unaffected — the classic raft partition exercises the
    replica-to-replica quorum, which is where split-brain would live.
    """

    start_us: float
    end_us: float
    groups: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.end_us < self.start_us:
            raise ValueError(
                f"empty partition window: [{self.start_us}, {self.end_us})"
            )
        # Normalize nested sequences (JSON round-trips tuples into lists).
        object.__setattr__(
            self, "groups", tuple(_tuple_of(g) for g in self.groups)
        )
        seen = set()
        for group in self.groups:
            for rid in group:
                if rid in seen:
                    raise ValueError(f"replica {rid} in two partition groups")
                seen.add(rid)

    def group_of(self, replica_id: int) -> int:
        """Index of the group holding ``replica_id`` (-1 = remainder group)."""
        for index, group in enumerate(self.groups):
            if replica_id in group:
                return index
        return -1


_KINDS = {
    "drops": DropWindow,
    "spikes": LatencySpike,
    "outages": NodeOutage,
    "rpc_failures": RpcFailure,
    "client_crashes": ClientCrash,
    "controller_crashes": ControllerCrash,
    "partitions": Partition,
}


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one simulation, as plain data."""

    drops: Tuple[DropWindow, ...] = ()
    spikes: Tuple[LatencySpike, ...] = ()
    outages: Tuple[NodeOutage, ...] = ()
    rpc_failures: Tuple[RpcFailure, ...] = ()
    client_crashes: Tuple[ClientCrash, ...] = ()
    controller_crashes: Tuple[ControllerCrash, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _KINDS:
            object.__setattr__(self, name, _tuple_of(getattr(self, name)))

    @property
    def empty(self) -> bool:
        return not any(getattr(self, name) for name in _KINDS)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form, stable field order — cache-key material."""
        out: Dict[str, Any] = {"seed": self.seed}
        for name in _KINDS:
            out[name] = [vars(item).copy() for item in getattr(self, name)]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        kwargs: Dict[str, Any] = {"seed": data.get("seed", 0)}
        for name, kind in _KINDS.items():
            items = data.get(name) or ()
            kwargs[name] = tuple(
                item if isinstance(item, kind) else kind(**item) for item in items
            )
        return cls(**kwargs)

    def shifted(self, offset_us: float) -> "FaultPlan":
        """The same plan with every window/instant moved by ``offset_us``.

        Experiments build plans relative to t=0 and shift them to "now" once
        warmup is done, so plan contents stay independent of warmup length.
        """
        return self._retimed(1.0, offset_us)

    def _retimed(self, scale: float, offset_us: float,
                 kinds: Sequence[str] = tuple(_KINDS)) -> "FaultPlan":
        """The plan under the affine time map ``t -> t * scale + offset_us``.

        Instants (``start_us``/``end_us``/``at_us``) take the whole map; the
        one duration, a spike's ``extra_us``, only scales.  Exact for
        ``scale == 1.0`` and for ``offset_us == 0.0``, the two uses.  Kinds
        outside ``kinds`` come out empty.
        """
        def moved(item):
            fields = vars(item)
            changes = {
                name: fields[name] * scale + offset_us
                for name in ("start_us", "end_us", "at_us") if name in fields
            }
            if "extra_us" in fields:
                changes["extra_us"] = fields["extra_us"] * scale
            return replace(item, **changes)

        return FaultPlan(
            seed=self.seed,
            **{
                kind: tuple(moved(item) for item in getattr(self, kind))
                for kind in kinds
            },
        )


#: Plan kinds the wall-clock chaos layer (``repro.runtime.chaos``) can
#: execute 1:1.  The rest are sim-only: client crashes need the engine's
#: ability to kill a driver mid-yield, and controller crashes/partitions
#: target the replicated metadata service, which the real substrate runs
#: in the launcher process.
WALL_KINDS = ("drops", "spikes", "outages", "rpc_failures")


def compile_wall(
    plan: FaultPlan, time_scale: float = 1.0
) -> Tuple[FaultPlan, Tuple[str, ...]]:
    """Compile a sim-time plan into a wall-clock schedule.

    The compilation rule is a single multiplication: every time quantity
    (window starts/ends *and* spike ``extra_us``) is scaled by
    ``time_scale``, turning simulated microseconds into wall-clock
    microseconds relative to the instant the fault gates are armed.  A
    sim plan authored against a ~30 ms simulated run replays against a
    ~1.5 s wall-clock loadgen with ``time_scale=50`` — same windows,
    same seed, same relative ordering.

    Returns ``(wall_plan, dropped_kinds)``; ``dropped_kinds`` names the
    sim-only fault kinds (see :data:`WALL_KINDS`) the wall layer cannot
    execute, so callers can refuse or warn instead of silently ignoring
    them.  Pure data-to-data: nothing here touches the engine, so sim
    runs stay byte-identical.
    """
    if time_scale <= 0.0:
        raise ValueError(f"time_scale must be positive, got {time_scale}")
    dropped = tuple(
        name for name in _KINDS
        if name not in WALL_KINDS and getattr(plan, name)
    )
    return plan._retimed(time_scale, 0.0, WALL_KINDS), dropped


class FaultInjector:
    """A :class:`FaultPlan` armed against a clock: the one fault gate.

    ``clock`` is anything with ``.now`` in microseconds.  On the sim it is
    the :class:`~repro.sim.engine.Engine` and one injector serves every
    node; on the real substrate each memory-node server arms its own
    against wall-clock microseconds since the common arm instant, and
    consults it once per request frame *before* the operation executes —
    so a dropped verb never ran, exactly like a sim drop that never
    reached the NIC.

    Construct with ``plan=None`` (or an empty plan) for an inert injector that
    layers can hold without any fault firing; :meth:`load` arms a plan later
    (optionally shifted to the current time), which is how experiments
    inject failures only after warmup.

    ``node_scope`` only derives the RNG seed.  Unscoped, probabilistic drops
    draw from one stream in verb-issue order; separate server processes
    cannot share that stream, so a scoped injector seeds its own from
    ``(plan seed, node id)``.  Drop *rates* and windows match across the
    substrates; the exact per-verb coin flips do not.
    """

    def __init__(self, clock, plan: Optional[FaultPlan] = None,
                 node_scope: Optional[int] = None):
        self.clock = clock
        self.node_scope = node_scope
        self.plan = FaultPlan()
        self.rng = random.Random(0)
        self._drops: Tuple[DropWindow, ...] = ()
        self._spikes: Tuple[LatencySpike, ...] = ()
        self._outages: Tuple[NodeOutage, ...] = ()
        self._controller_crashes: Tuple[ControllerCrash, ...] = ()
        self._partitions: Tuple[Partition, ...] = ()
        self._active_until = -_INF  # fast no-fault path: nothing before this
        self._active_from = _INF
        #: Span tracer (repro.obs); None keeps load() annotation-free.
        self.tracer = None
        #: Always-on fate tally of :meth:`verb_outcome` (plain dict
        #: increments; cheap enough to keep unconditioned).
        self.verdicts: Dict[str, int] = {
            "ok": 0, "drop": 0, "down": 0, "spike": 0,
        }
        if plan is not None:
            self.load(plan)

    def load(self, plan: FaultPlan, offset_us: float = 0.0) -> None:
        """(Re)arm the injector with ``plan``, shifted by ``offset_us``."""
        if offset_us:
            plan = plan.shifted(offset_us)
        self.plan = plan
        self.rng = random.Random(
            plan.seed if self.node_scope is None
            else plan.seed * 1_000_003 + self.node_scope
        )
        # Controller RPC failures are verb drops scoped to the "rpc" verb:
        # the request (or its response) vanishes and the client times out.
        self._drops = plan.drops + tuple(
            DropWindow(r.start_us, r.end_us, r.prob, r.node_id, ("rpc",))
            for r in plan.rpc_failures
        )
        self._spikes = plan.spikes
        self._outages = plan.outages
        # Controller faults never touch verb_outcome, so they stay out of
        # the verb fast-path window below — consensus consults them through
        # its own point queries.
        self._controller_crashes = plan.controller_crashes
        self._partitions = plan.partitions
        windows = [
            (w.start_us, w.end_us)
            for w in (*self._drops, *self._spikes, *self._outages)
        ]
        self._active_from = min((s for s, _ in windows), default=_INF)
        self._active_until = max((e for _, e in windows), default=-_INF)
        if self.tracer is not None and not plan.empty:
            self.tracer.fault_windows(plan.to_dict())

    # -- point queries ------------------------------------------------------

    def node_down(self, node_id: int, now: Optional[float] = None) -> bool:
        if now is None:
            now = self.clock.now
        for outage in self._outages:
            if outage.node_id == node_id and outage.start_us <= now < outage.end_us:
                return True
        return False

    def controller_down(self, replica_id: int, now: Optional[float] = None) -> bool:
        """Is consensus replica ``replica_id`` inside a crash window *now*?"""
        if now is None:
            now = self.clock.now
        for crash in self._controller_crashes:
            if (
                crash.replica_id == replica_id
                and crash.start_us <= now < crash.end_us
            ):
                return True
        return False

    def link_cut(self, a: int, b: int, now: Optional[float] = None) -> bool:
        """Are replicas ``a`` and ``b`` on opposite sides of a partition?"""
        if not self._partitions:
            return False
        if now is None:
            now = self.clock.now
        for p in self._partitions:
            if p.start_us <= now < p.end_us and p.group_of(a) != p.group_of(b):
                return True
        return False

    def verb_outcome(self, node_id: int, verb: str) -> Tuple[int, float]:
        """Fate of one verb issued *now*: ``(kind, extra_lead_us)``.

        ``kind`` is OK / DROP / DOWN.  Probabilistic drops consume one RNG
        draw per *matching* verb, so plans that never match a verb leave the
        fault RNG untouched.
        """
        now = self.clock.now
        verdicts = self.verdicts
        if not self._active_from <= now < self._active_until:
            verdicts["ok"] += 1
            return OK, 0.0
        for outage in self._outages:
            if outage.node_id == node_id and outage.start_us <= now < outage.end_us:
                verdicts["down"] += 1
                return DOWN, 0.0
        for w in self._drops:
            if (
                w.start_us <= now < w.end_us
                and (w.node_id is None or w.node_id == node_id)
                and (w.verbs is None or verb in w.verbs)
                and (w.prob >= 1.0 or self.rng.random() < w.prob)
            ):
                verdicts["drop"] += 1
                return DROP, 0.0
        extra = 0.0
        for s in self._spikes:
            if (
                s.start_us <= now < s.end_us
                and (s.node_id is None or s.node_id == node_id)
                and (s.verbs is None or verb in s.verbs)
            ):
                extra += s.extra_us
        verdicts["spike" if extra > 0.0 else "ok"] += 1
        return OK, extra


__all__ = [
    "OK",
    "DROP",
    "DOWN",
    "ClientCrash",
    "ControllerCrash",
    "DropWindow",
    "FaultInjector",
    "FaultPlan",
    "LatencySpike",
    "NodeOutage",
    "Partition",
    "RpcFailure",
    "WALL_KINDS",
    "compile_wall",
]
