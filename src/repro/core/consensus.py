"""Replicated controller metadata: raft-style consensus over sim time.

The single point of failure in the seed system is the controller role: one
crash of the machine holding the membership table and the segment grant
logs and the cluster can neither finish a drain nor admit new segment
allocations.  This module removes it.  A :class:`ControllerGroup` runs
``n`` :class:`RaftReplica` state machines inside the discrete-event engine;
each replica holds a full clone of the cluster's metadata
(:class:`~repro.core.elasticity.MetadataState`) and the group only
acknowledges a metadata command once a majority has logged it.

Mapping onto the simulator:

- **Timers** are ``Engine.call_later`` callbacks guarded by a per-replica
  token (the engine has no cancellation; bumping the token invalidates every
  outstanding callback).  Election timeouts are drawn from a per-replica
  seeded RNG, so elections — including split-vote re-elections — are fully
  deterministic for a given seed.
- **Messages** travel through :meth:`ControllerGroup.send`, one
  ``call_later`` per hop; delivery consults the fault injector *at delivery
  time*, so :class:`~repro.sim.faults.ControllerCrash` and
  :class:`~repro.sim.faults.Partition` windows drop exactly the messages in
  flight during the window.
- **Quiescence parking** keeps a bare ``engine.run()`` terminating: a
  leader whose log is fully committed, fully replicated, and has no waiting
  clients for ``idle_park_rounds`` consecutive heartbeats broadcasts a
  ``park`` and stops its heartbeat timer; parked followers cancel their
  election timers.  Any client submission or message un-parks the group.
  Without this, perpetual heartbeats would keep the event heap non-empty
  forever and every ``engine.run()`` in the harness would spin.

Linearizability for retried commands comes from per-session deduplication:
every mutating command carries ``(session, seq)`` and each replica's state
machine memoizes the last applied result per session, so a command whose
ack was lost to a crash is *answered again*, not *applied again* — a
re-submitted ``alloc_segment`` cannot leak a second grant.

Errors cross the log as plain markers (``("__oom__", msg)`` /
``("__stale__", epoch, node)``) because exceptions are results too: every
replica must record the same outcome, and the submitting client re-raises
the real :class:`OutOfMemoryError` / :class:`StaleEpoch` locally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..memory.controller import OutOfMemoryError
from ..rdma.verbs import RdmaFaultError, StaleEpoch
from ..sim import Engine, Event
from .elasticity import MetadataState
from .retry import backoff_us

#: Replica roles.
FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

#: Commands that read replicated state without mutating it; they skip the
#: session-dedup machinery (re-execution is harmless).
READ_ONLY = frozenset({"list_segments", "get_membership"})


class NotLeader(Exception):
    """Raised by a non-leader replica on a client append; carries a hint."""

    def __init__(self, leader_hint: Optional[int]):
        super().__init__(f"not leader (hint: {leader_hint})")
        self.leader_hint = leader_hint


class ConsensusUnavailable(RdmaFaultError):
    """No replica could commit the command within the retry budget.

    Subclasses :class:`RdmaFaultError` so every existing fault-retry loop
    (client ops, migration steps, crash recovery) treats a temporarily
    leaderless controller group like any other transient fault window.
    """


@dataclass(frozen=True)
class RaftParams:
    """Timing and retry knobs for a controller group (microseconds)."""

    heartbeat_us: float = 200.0
    election_min_us: float = 800.0
    election_max_us: float = 1600.0
    #: One-way replica<->replica message latency.
    link_us: float = 3.0
    #: One-way client<->replica latency for metadata submissions.
    client_link_us: float = 3.0
    #: Client-side wait for a commit ack before giving up on a replica.
    rpc_timeout_us: float = 1500.0
    #: Consecutive idle heartbeat rounds before the leader parks the group.
    idle_park_rounds: int = 8
    #: Submission attempts (across replicas) before ConsensusUnavailable.
    max_submit_attempts: int = 64
    #: Client re-submission backoff (mirrors DittoConfig retry defaults).
    retry_base_us: float = 20.0
    retry_ceiling_us: float = 2000.0
    retry_jitter: float = 0.5

    def __post_init__(self):
        if self.election_min_us <= 2 * self.heartbeat_us:
            raise ValueError(
                "election_min_us must exceed two heartbeat intervals"
            )
        if self.election_max_us <= self.election_min_us:
            raise ValueError("election_max_us must exceed election_min_us")


class RaftReplica:
    """One controller replica: elections, log replication, parking."""

    def __init__(self, replica_id: int, group: "ControllerGroup",
                 state: MetadataState, rng: random.Random):
        self.id = replica_id
        self.group = group
        self.state = state
        self.rng = rng
        self.term = 0
        self.voted_for: Optional[int] = None
        self.role = FOLLOWER
        self.leader_hint: Optional[int] = None
        #: Log entries: (term, session, seq, command).  Count-indexed —
        #: ``commit``/``applied`` are entry *counts*, not offsets.
        self.log: List[Tuple] = []
        self.commit = 0
        self.applied = 0
        self.parked = False
        #: Bumped to invalidate every outstanding timer callback.
        self._timer_token = 0
        # Leader bookkeeping.
        self.next_count: Dict[int, int] = {}
        self.match_count: Dict[int, int] = {}
        self._votes = set()
        self._idle_rounds = 0
        self._arm_election()

    # -- timers --------------------------------------------------------------

    def _arm_election(self) -> None:
        self._timer_token += 1
        delay = self.rng.uniform(
            self.group.params.election_min_us, self.group.params.election_max_us
        )
        self.group.engine.call_later(delay, self._election_fire, self._timer_token)

    def _election_fire(self, token: int) -> None:
        group = self.group
        if group.stopped or token != self._timer_token:
            return
        if group.replica_down(self.id):
            self._arm_election()  # frozen: keep the clock running
            return
        if self.parked or self.role == LEADER:
            return
        self._start_election()

    def _start_election(self) -> None:
        self.term += 1
        self.role = CANDIDATE
        self.voted_for = self.id
        self._votes = {self.id}
        self.leader_hint = None
        self.group._record("election", self.id, self.term)
        last_term = self.log[-1][0] if self.log else 0
        for peer in self.group.peer_ids(self.id):
            self._send(peer, ("vote_req", self.term, self.id, len(self.log), last_term))
        if len(self._votes) >= self.group.majority:  # single-replica group
            self._become_leader()
            return
        self._arm_election()

    def _become_leader(self) -> None:
        self.role = LEADER
        self.leader_hint = self.id
        self._timer_token += 1  # cancel the pending election timer
        self.next_count = {p: len(self.log) for p in self.group.peer_ids(self.id)}
        self.match_count = {p: 0 for p in self.group.peer_ids(self.id)}
        self._idle_rounds = 0
        self.parked = False
        self.group._record("leader", self.id, self.term)
        # A no-op in its own term lets the new leader commit everything
        # inherited from prior terms (the standard commit-safety dance).
        self.log.append((self.term, None, 0, ("noop",)))
        self._broadcast_appends()
        self._maybe_advance_commit()
        self.group.engine.call_later(
            self.group.params.heartbeat_us, self._heartbeat_fire, self._timer_token
        )

    def _resume_heartbeat(self) -> None:
        self._timer_token += 1
        self._idle_rounds = 0
        self.group.engine.call_later(
            self.group.params.heartbeat_us, self._heartbeat_fire, self._timer_token
        )

    def _heartbeat_fire(self, token: int) -> None:
        group = self.group
        if group.stopped or token != self._timer_token or self.role != LEADER:
            return
        if group.replica_down(self.id):
            # A crashed leader does nothing but keep its clock alive; on
            # recovery it resumes heartbeating and either reasserts or
            # learns of a higher term from the replies.
            group.engine.call_later(
                group.params.heartbeat_us, self._heartbeat_fire, token
            )
            return
        fully_replicated = all(
            m >= len(self.log) for m in self.match_count.values()
        ) if self.match_count else True
        if self.commit >= len(self.log) and fully_replicated and not group.waiters:
            self._idle_rounds += 1
            if self._idle_rounds >= group.params.idle_park_rounds:
                self.parked = True
                group._count("consensus_park")
                for peer in group.peer_ids(self.id):
                    self._send(peer, ("park", self.term, self.id))
                return  # no re-arm: the heap drains
        else:
            self._idle_rounds = 0
        self._broadcast_appends()
        group.engine.call_later(
            group.params.heartbeat_us, self._heartbeat_fire, token
        )

    # -- messaging -----------------------------------------------------------

    def _send(self, dst: int, msg: Tuple) -> None:
        self.group.send(self.id, dst, msg)

    def _receive(self, src: int, msg: Tuple) -> None:
        kind = msg[0]
        if self.parked and kind != "park":
            # Any live traffic un-parks the group (e.g. a replica that was
            # crashed through the park broadcast and is now campaigning).
            self.parked = False
            if self.role == LEADER:
                self._resume_heartbeat()
            else:
                self._arm_election()
        if kind == "vote_req":
            self._on_vote_req(*msg[1:])
        elif kind == "vote_rep":
            self._on_vote_rep(*msg[1:])
        elif kind == "append":
            self._on_append(*msg[1:])
        elif kind == "append_rep":
            self._on_append_rep(*msg[1:])
        elif kind == "park":
            self._on_park(*msg[1:])

    def _step_down(self, term: int) -> None:
        self.term = term
        self.role = FOLLOWER
        self.voted_for = None
        self._votes = set()
        self._arm_election()

    # -- elections -----------------------------------------------------------

    def _on_vote_req(self, term: int, candidate: int, last_count: int,
                     last_term: int) -> None:
        if term > self.term:
            self._step_down(term)
        granted = False
        if term == self.term and self.voted_for in (None, candidate):
            my_last_term = self.log[-1][0] if self.log else 0
            if (last_term, last_count) >= (my_last_term, len(self.log)):
                granted = True
                self.voted_for = candidate
                self._arm_election()
        self._send(candidate, ("vote_rep", self.term, self.id, granted))

    def _on_vote_rep(self, term: int, voter: int, granted: bool) -> None:
        if term > self.term:
            self._step_down(term)
            return
        if self.role != CANDIDATE or term != self.term or not granted:
            return
        self._votes.add(voter)
        if len(self._votes) >= self.group.majority:
            self._become_leader()

    # -- log replication -----------------------------------------------------

    def _send_append(self, peer: int) -> None:
        prev = min(self.next_count.get(peer, len(self.log)), len(self.log))
        prev_term = self.log[prev - 1][0] if prev > 0 else 0
        entries = tuple(self.log[prev:])
        self._send(peer, ("append", self.term, self.id, prev, prev_term,
                          entries, self.commit))

    def _broadcast_appends(self) -> None:
        for peer in self.group.peer_ids(self.id):
            self._send_append(peer)

    def _on_append(self, term: int, leader: int, prev: int, prev_term: int,
                   entries: Tuple, leader_commit: int) -> None:
        if term < self.term:
            self._send(leader, ("append_rep", self.term, self.id, False, 0))
            return
        if term > self.term or self.role != FOLLOWER:
            self._step_down(term)
        self.term = term
        self.leader_hint = leader
        self._arm_election()  # leader contact resets the election clock
        if prev > len(self.log) or (prev > 0 and self.log[prev - 1][0] != prev_term):
            self._send(leader, ("append_rep", self.term, self.id, False, 0))
            return
        pos = prev
        for entry in entries:
            if pos < len(self.log):
                if self.log[pos][0] != entry[0]:
                    del self.log[pos:]  # conflict: drop the divergent suffix
                    self.log.append(entry)
            else:
                self.log.append(entry)
            pos += 1
        if leader_commit > self.commit:
            self.commit = min(leader_commit, len(self.log))
            self._apply_committed()
        self._send(leader, ("append_rep", self.term, self.id, True,
                            prev + len(entries)))

    def _on_append_rep(self, term: int, follower: int, ok: bool,
                       match: int) -> None:
        if term > self.term:
            self._step_down(term)
            return
        if self.role != LEADER or term != self.term:
            return
        if ok:
            if match > self.match_count.get(follower, 0):
                self.match_count[follower] = match
            if match > self.next_count.get(follower, 0):
                self.next_count[follower] = match
            self._maybe_advance_commit()
        else:
            self.next_count[follower] = max(
                0, self.next_count.get(follower, 1) - 1
            )
            self._send_append(follower)

    def _on_park(self, term: int, leader: int) -> None:
        if term < self.term:
            return
        if term > self.term:
            self._step_down(term)
        self.role = FOLLOWER
        self.leader_hint = leader
        self.parked = True
        self._timer_token += 1  # cancel the election timer: heap drains

    def _maybe_advance_commit(self) -> None:
        counts = sorted(
            [len(self.log)] + list(self.match_count.values()), reverse=True
        )
        candidate = counts[self.group.majority - 1]
        # Only entries from the *current* term commit by counting replicas.
        if candidate > self.commit and self.log[candidate - 1][0] == self.term:
            self.commit = candidate
            self._apply_committed()

    def _apply_committed(self) -> None:
        while self.applied < self.commit:
            entry = self.log[self.applied]
            self.state.apply_entry(entry[1], entry[2], entry[3])
            self.applied += 1
            self.group._on_commit(self.applied, entry)

    # -- client interface ----------------------------------------------------

    def append_client(self, session: Optional[int], seq: int, command: Tuple,
                      event: Event) -> int:
        """Append a client command; registers ``event`` for the commit ack."""
        if self.parked:
            self.parked = False
            if self.role == LEADER:
                self._resume_heartbeat()
            else:
                self._arm_election()
        if self.role != LEADER:
            hint = self.leader_hint if self.leader_hint != self.id else None
            raise NotLeader(hint)
        self.log.append((self.term, session, seq, command))
        position = len(self.log)
        self._idle_rounds = 0
        self.group.waiters.setdefault(position, []).append((self.term, event))
        self._broadcast_appends()
        self._maybe_advance_commit()  # single-replica groups commit here
        return position


class ControllerGroup:
    """A replicated controller: n raft replicas over one physical state.

    ``physical`` is the MetadataState whose SegmentState objects *are* the
    live controllers' state and whose MembershipTable *is* the cluster's;
    the group applies each committed log position to it exactly once, in
    order, regardless of which replica commits first.
    """

    def __init__(self, engine: Engine, physical: MetadataState,
                 n_replicas: int, seed: int,
                 params: Optional[RaftParams] = None,
                 faults=None, counters=None, tracer=None):
        if n_replicas < 1:
            raise ValueError("a controller group needs at least one replica")
        self.engine = engine
        self.physical = physical
        self.params = params if params is not None else RaftParams()
        self.faults = faults
        self.counters = counters
        self.tracer = tracer
        self.n = n_replicas
        self.majority = n_replicas // 2 + 1
        self.stopped = False
        #: log position -> [(term, Event), ...] commit-ack waiters.
        self.waiters: Dict[int, List[Tuple[int, Event]]] = {}
        #: Highest log position applied to the physical state.
        self._applied_global = 0
        #: (time_us, kind, replica_id, term) — election/leader timeline.
        self.events: List[Tuple[float, str, int, int]] = []
        #: (time_us, position) for each physical commit (availability metric).
        self.commit_times: List[Tuple[float, int]] = []
        self._client_count = 0
        self.replicas = [
            RaftReplica(
                i, self, physical.clone(),
                random.Random((seed * 1_000_003 + 7919 * i + 9176) & 0xFFFFFFFF),
            )
            for i in range(n_replicas)
        ]
        self._submit_rng_seed = seed

    def peer_ids(self, rid: int):
        return [i for i in range(self.n) if i != rid]

    # -- fault windows -------------------------------------------------------

    def replica_down(self, rid: int) -> bool:
        return self.faults is not None and self.faults.controller_down(rid)

    def _link_cut(self, a: int, b: int) -> bool:
        return self.faults is not None and self.faults.link_cut(a, b)

    # -- the replica network -------------------------------------------------

    def send(self, src: int, dst: int, msg: Tuple) -> None:
        self.engine.call_later(self.params.link_us, self._deliver, src, dst, msg)

    def _deliver(self, src: int, dst: int, msg: Tuple) -> None:
        if self.stopped:
            return
        if self.replica_down(dst) or self.replica_down(src):
            return  # receiver frozen, or sender crashed with the msg in flight
        if self._link_cut(src, dst):
            return
        self.replicas[dst]._receive(src, msg)

    # -- commit fan-out ------------------------------------------------------

    def _on_commit(self, position: int, entry: Tuple) -> None:
        """First replica to apply ``position`` also applies it physically."""
        if position <= self._applied_global:
            return
        # Replicas apply their own logs in order, so the first arrival at a
        # new position is always exactly _applied_global + 1.
        result = self.physical.apply_entry(entry[1], entry[2], entry[3])
        self._applied_global = position
        self.commit_times.append((self.engine.now, position))
        for term, event in self.waiters.pop(position, ()):
            if not event.triggered:
                if term == entry[0]:
                    event.trigger(("ok", result))
                else:
                    # A different entry won this slot: re-submit (dedup
                    # makes the retry safe even if the original committed).
                    event.trigger(("retry", None))

    def _expire_waiter(self, position: int, event: Event) -> None:
        if not event.triggered:
            event.trigger(("timeout", None))
        # Prune the registration: a position that never commits (e.g. the
        # entry sits on a deposed leader's uncommitted tail) must not keep
        # the group's waiter set non-empty forever — that would block
        # quiescence parking and hang any bare ``engine.run()``.
        pending = self.waiters.get(position)
        if pending is not None:
            pending[:] = [(t, ev) for t, ev in pending if ev is not event]
            if not pending:
                del self.waiters[position]

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, kind: str, rid: int, term: int) -> None:
        self.events.append((self.engine.now, kind, rid, term))
        self._count("consensus_" + kind)
        if self.tracer is not None:
            self.tracer.instant(
                "consensus." + kind, "consensus",
                {"replica": rid, "term": term},
            )

    def _count(self, name: str, value: int = 1) -> None:
        if self.counters is not None:
            self.counters.add(name, value)

    def leader_id(self, live_only: bool = True) -> Optional[int]:
        """The live leader with the highest term, if any."""
        best = None
        for replica in self.replicas:
            if replica.role != LEADER:
                continue
            if live_only and self.replica_down(replica.id):
                continue
            if best is None or replica.term > best.term:
                best = replica
        return best.id if best is not None else None

    def election_timeline(self) -> List[Tuple[float, str, int, int]]:
        return list(self.events)

    def make_client(self) -> "GroupClient":
        self._client_count += 1
        session = self._client_count
        rng = random.Random(
            (self._submit_rng_seed * 1_000_003 + 104_729 * session + 11) & 0xFFFFFFFF
        )
        return GroupClient(self, session, rng)

    def stop(self) -> None:
        """Tear the group down; in-flight messages and timers become no-ops."""
        self.stopped = True


class GroupClient:
    """Per-submitter handle: leader discovery, redirects, dedup session."""

    def __init__(self, group: ControllerGroup, session: int,
                 rng: random.Random):
        self.group = group
        self.session = session
        self.rng = rng
        self.seq = 0
        self.leader_hint: Optional[int] = None
        self._probe = session % group.n

    def _next_probe(self) -> int:
        rid = self._probe % self.group.n
        self._probe += 1
        return rid

    def submit(self, command: Tuple):
        """Commit one metadata command; a sim generator (yield from it).

        Returns the command's result, re-raising marker-encoded errors
        (:class:`OutOfMemoryError`, :class:`StaleEpoch`).  Raises
        :class:`ConsensusUnavailable` once ``max_submit_attempts`` replicas
        in a row fail to produce a committed ack.
        """
        group = self.group
        params = group.params
        mutating = command[0] not in READ_ONLY
        if mutating:
            self.seq += 1
        session = self.session if mutating else None
        seq = self.seq
        target = self.leader_hint
        attempt = 0
        while True:
            attempt += 1
            if attempt > params.max_submit_attempts:
                group._count("consensus_unavailable")
                raise ConsensusUnavailable(
                    f"metadata command {command[0]} failed on "
                    f"{attempt - 1} attempts (no stable leader)",
                    verb="consensus",
                )
            if target is None:
                target = self._next_probe()
            outcome = yield from self._attempt(target, session, seq, command)
            kind = outcome[0]
            if kind == "ok":
                self.leader_hint = target
                return _translate(outcome[1])
            if kind == "redirect":
                hint = outcome[1]
                if (hint is not None and hint != target
                        and not group.replica_down(hint)):
                    target = hint  # fresh hint: chase it without backoff
                    continue
                target = None
            else:  # down / timeout / retry
                self.leader_hint = None
                target = None
            delay = backoff_us(
                min(attempt, 8), base=params.retry_base_us,
                ceiling=params.retry_ceiling_us, jitter=params.retry_jitter,
                rng=self.rng,
            )
            if delay > 0.0:
                yield delay

    def _attempt(self, rid: int, session: Optional[int], seq: int,
                 command: Tuple):
        group = self.group
        params = group.params
        yield params.client_link_us
        if group.stopped:
            return ("retry", None)
        if group.replica_down(rid):
            yield params.rpc_timeout_us  # burn the RPC timeout
            return ("down", None)
        event = Event(group.engine)
        try:
            position = group.replicas[rid].append_client(
                session, seq, command, event
            )
        except NotLeader as err:
            yield params.client_link_us
            return ("redirect", err.leader_hint)
        group._count("consensus_submit")
        group.engine.call_later(params.rpc_timeout_us, group._expire_waiter,
                                position, event)
        outcome = yield event
        yield params.client_link_us
        return outcome


def _translate(result):
    """Re-raise marker-encoded errors; pass everything else through."""
    if isinstance(result, tuple) and result:
        if result[0] == "__oom__":
            raise OutOfMemoryError(result[1])
        if result[0] == "__stale__":
            _, epoch, node_id = result
            raise StaleEpoch(
                f"node {node_id} is draining at epoch {epoch}: "
                f"no new segment grants",
                verb="rpc", node_id=node_id, epoch=epoch,
            )
    return result


__all__ = [
    "CANDIDATE",
    "ConsensusUnavailable",
    "ControllerGroup",
    "FOLLOWER",
    "GroupClient",
    "LEADER",
    "NotLeader",
    "RaftParams",
    "RaftReplica",
]
