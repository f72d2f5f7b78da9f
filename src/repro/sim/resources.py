"""Contended resources for the simulation engine.

Two shapes cover every bottleneck in the reproduction:

- :class:`Resource` — ``capacity`` identical servers with a FIFO wait queue.
  Models CPU cores on memory nodes and Redis servers.
- :class:`RateLimiter` — a single FIFO pipe where each job occupies the pipe
  for a job-specific service time.  Models the RNIC message processing rate:
  the NIC handles one message every ``1/rate`` microseconds, and queueing
  delay emerges when offered load exceeds the rate.

Both support live capacity changes, which is how elasticity experiments add
and remove CPU cores mid-run.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from .engine import Engine, Event, SimulationError, Timeout


class Resource:
    """``capacity`` interchangeable servers with a FIFO queue.

    Usage inside a process::

        yield from resource.acquire()
        try:
            yield Timeout(service_time)
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
            yield Timeout(service_time)
        finally:
            self.release()


class RateLimiter:
    """A FIFO serial pipe: each job occupies it for its own service time.

    Unlike :class:`Resource`, the service time is supplied per job, which lets
    one NIC model charge different costs for READ vs CAS vs RPC messages.
    ``parallelism`` models NIC processing units (default 1 keeps the classic
    single-queue behaviour).

    Implementation: virtual-time scheduling.  A FIFO c-server queue is fully
    determined by per-server "free at" times, so a job arriving at ``now``
    starts at ``max(now, earliest_free)`` and the whole wait+service collapses
    into a single Timeout — an exact equivalence that removes per-job queue
    events from the hot path (the MN NIC serves millions of simulated
    messages per experiment).
    """

    __slots__ = ("engine", "_free_at", "messages")

    def __init__(self, engine: Engine, parallelism: int = 1):
        if parallelism < 1:
            raise SimulationError(f"parallelism must be >= 1, got {parallelism}")
        self.engine = engine
        self._free_at = [0.0] * parallelism
        self.messages = 0  # total jobs served, for message-rate accounting

    @property
    def backlog_us(self) -> float:
        """How far the pipe is booked beyond the current time."""
        busiest = max(self._free_at)
        now = self.engine.now
        return busiest - now if busiest > now else 0.0

    def set_parallelism(self, parallelism: int) -> None:
        if parallelism < 1:
            raise SimulationError(f"parallelism must be >= 1, got {parallelism}")
        now = self.engine.now
        current = self._free_at
        if parallelism > len(current):
            current.extend([now] * (parallelism - len(current)))
        else:
            # Keep the *busiest* (largest free-at) slots: work already booked
            # on the pipe must survive an elasticity shrink.  Dropping the
            # largest times instead would silently cancel queued service.
            current.sort()
            self._free_at = current[len(current) - parallelism :]

    def book(
        self, service_time: float, lead_us: float = 0.0, lag_us: float = 0.0
    ) -> float:
        """Book the pipe; returns the delay from *now* until service is done.

        ``lead_us`` models time before the job reaches the pipe (client
        overhead + network flight) and ``lag_us`` time after service (the
        response flight); both are folded into the booking math so the whole
        verb costs a single engine event.  The verb layer yields the
        returned delay as a bare float (or, for a post, hands it to
        ``call_later``), with no nested generator per message on the hot
        path.
        """
        self.messages += 1
        now = self.engine._now
        arrival = now + lead_us
        free_at = self._free_at
        slot = 0
        earliest = free_at[0]
        if len(free_at) > 1:
            for i, t in enumerate(free_at):
                if t < earliest:
                    earliest, slot = t, i
        start = earliest if earliest > arrival else arrival
        finish = start + service_time
        free_at[slot] = finish
        return finish + lag_us - now

    def serve(
        self, service_time: float, lead_us: float = 0.0, lag_us: float = 0.0
    ) -> Generator:
        """Generator form of :meth:`book` (queue for the pipe, resume when
        served); kept for non-hot-path callers and tests."""
        yield Timeout(self.book(service_time, lead_us, lag_us))

    def sample(self) -> dict:
        """Point-in-time pipe snapshot (``repro.obs`` timelines).

        ``busy_slots`` counts processing units currently booked past *now* —
        the NIC-slot occupancy the utilization timeline plots.
        """
        now = self.engine._now
        free_at = self._free_at
        busy = sum(1 for t in free_at if t > now)
        return {
            "backlog_us": self.backlog_us,
            "busy_slots": busy,
            "slots": len(free_at),
            "messages": self.messages,
        }


class Lock:
    """A simple FIFO mutex for *local* (same compute node) coordination.

    Remote locks on disaggregated memory are modelled faithfully as CAS loops
    on memory words (see ``repro.baselines.shard_lru``); this class only
    protects state shared by co-located simulated threads.
    """

    __slots__ = ("_resource",)

    def __init__(self, engine: Engine):
        self._resource = Resource(engine, 1)

    @property
    def locked(self) -> bool:
        return self._resource.in_use > 0

    def acquire(self) -> Generator:
        yield from self._resource.acquire()

    def release(self) -> None:
        self._resource.release()

    def sample(self) -> dict:
        """Point-in-time lock snapshot: held? how many waiters (lock wait)."""
        return {
            "locked": 1 if self.locked else 0,
            "waiters": self._resource.queue_length,
        }
