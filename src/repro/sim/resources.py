"""Contended resources for the simulation engine.

Two shapes cover every bottleneck in the reproduction:

- :class:`Resource` — ``capacity`` identical servers with a FIFO wait queue.
  Models CPU cores on memory nodes and Redis servers.
- :class:`RateLimiter` — a one-slot FIFO pipe where each job occupies the
  pipe for a job-specific service time.  Models the RNIC message processing
  rate: the NIC handles one message every ``1/rate`` microseconds, and
  queueing delay emerges when offered load exceeds the rate.

A :class:`Resource` supports live capacity changes, which is how elasticity
experiments add and remove CPU cores mid-run.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from .engine import Engine, Event, SimulationError


class Resource:
    """``capacity`` interchangeable servers with a FIFO queue.

    Usage inside a process::

        yield from resource.acquire()
        try:
            yield service_time
        finally:
            resource.release()

    or the one-shot helper ``yield from resource.serve(service_time)``.
    """

    __slots__ = ("engine", "_capacity", "_in_use", "_waiters")

    def __init__(self, engine: Engine, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self._capacity = capacity
        self._in_use = 0
        self._waiters: deque = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def set_capacity(self, capacity: int) -> None:
        """Adjust the number of servers at runtime.

        Growing wakes queued waiters immediately; shrinking lets busy servers
        drain naturally (releases stop handing slots to waiters until the
        in-use count falls below the new capacity).
        """
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        while self._waiters and self._in_use < self._capacity:
            event = self._waiters.popleft()
            self._in_use += 1
            event.trigger()

    def sample(self) -> dict:
        """Point-in-time utilization snapshot (``repro.obs`` timelines)."""
        capacity = self._capacity
        return {
            "in_use": self._in_use,
            "capacity": capacity,
            "queue": len(self._waiters),
            "utilization": self._in_use / capacity if capacity else 0.0,
        }

    def acquire(self) -> Generator:
        if self._in_use < self._capacity:
            self._in_use += 1
            return
        event = Event(self.engine)
        self._waiters.append(event)
        try:
            yield event
        except GeneratorExit:
            # The acquiring process was killed (fault injection) while
            # queued.  Leaving the waiter behind would strand a server slot
            # forever when a release hands it to us: either pass a slot we
            # were just granted straight on, or step out of the queue.
            if event.triggered:
                self.release()
            else:
                self._waiters.remove(event)
            raise

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release without acquire")
        if self._waiters and self._in_use <= self._capacity:
            # Hand the slot directly to the next waiter; in_use is unchanged.
            event = self._waiters.popleft()
            event.trigger()
        else:
            self._in_use -= 1

    def serve(self, service_time: float) -> Generator:
        """Acquire a server, hold it for ``service_time``, release it."""
        yield from self.acquire()
        try:
            yield service_time
        finally:
            self.release()


class RateLimiter:
    """A one-slot FIFO pipe: each job occupies it for its own service time.

    Unlike :class:`Resource`, the service time is supplied per job, which lets
    one NIC model charge different costs for READ vs CAS vs RPC messages.

    Implementation: virtual-time scheduling.  A FIFO single-server queue is
    fully determined by the time the server is next free, so a job arriving
    at ``now`` starts at ``max(now, free_at)`` and the whole wait+service
    collapses into a single delay — an exact equivalence that removes
    per-job queue events from the hot path (the MN NIC serves millions of
    simulated messages per experiment).
    """

    __slots__ = ("engine", "_free_at", "messages")

    def __init__(self, engine: Engine):
        self.engine = engine
        self._free_at = 0.0
        self.messages = 0  # total jobs served, for message-rate accounting

    @property
    def backlog_us(self) -> float:
        """How far the pipe is booked beyond the current time."""
        free_at = self._free_at
        now = self.engine.now
        return free_at - now if free_at > now else 0.0

    def book(
        self, service_time: float, lead_us: float = 0.0, lag_us: float = 0.0
    ) -> float:
        """Book the pipe; returns the delay from *now* until service is done.

        ``lead_us`` models time before the job reaches the pipe (client
        overhead + network flight) and ``lag_us`` time after service (the
        response flight); both are folded into the booking math so the whole
        verb costs a single engine event.  The verb layer yields the
        returned delay (or, for a post, hands it to ``call_later``), with no
        nested generator per message on the hot path.
        """
        self.messages += 1
        now = self.engine._now
        arrival = now + lead_us
        free_at = self._free_at
        start = free_at if free_at > arrival else arrival
        finish = self._free_at = start + service_time
        return finish + lag_us - now

    def sample(self) -> dict:
        """Point-in-time pipe snapshot (``repro.obs`` timelines).

        ``busy_slots`` is 1 while the pipe is booked past *now* — the
        NIC-slot occupancy the utilization timeline plots.
        """
        return {
            "backlog_us": self.backlog_us,
            "busy_slots": 1 if self._free_at > self.engine._now else 0,
            "slots": 1,
            "messages": self.messages,
        }
