"""Contended servers for the simulation engine.

One shape covers every bottleneck in the reproduction: :class:`Resource`,
``capacity`` identical servers behind one FIFO queue, where each job brings
its own service time.  It models the RNIC's message rate (one slot, a
per-verb cost), a memory node's controller cores and a Redis node's core.

A :class:`Resource`'s capacity is fixed when it is built: an experiment that
varies CPU cores (Figure 15) builds one cluster per core count.
"""

from __future__ import annotations

from heapq import heapreplace

from .engine import Engine, SimulationError


class Resource:
    """``capacity`` interchangeable servers with a FIFO queue, booked ahead.

    Implementation: virtual-time scheduling.  A FIFO queue in front of ``k``
    servers is fully determined by the time each server is next free: a job
    arriving at ``now`` starts at ``max(now, earliest free time)`` on that
    earliest-free server, so its whole wait + service collapses into one
    delay the caller yields — one engine event per job, no queue of waiting
    processes.  Booking in arrival order onto the earliest-free slot is exact
    for FIFO with ``k`` servers.

    A booking is final: a process killed while it waits out its delay
    leaves its slot booked until its service would have ended.
    """

    __slots__ = ("engine", "_free", "messages")

    def __init__(self, engine: Engine, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        #: Min-heap of the time each server is next free.
        self._free = [0.0] * capacity
        self.messages = 0  # total jobs booked, for message-rate accounting

    @property
    def capacity(self) -> int:
        return len(self._free)

    def book(
        self, service_us: float, lead_us: float = 0.0, lag_us: float = 0.0
    ) -> float:
        """Book a server; returns the delay from *now* until service is done.

        ``lead_us`` models time before the job reaches the queue (client
        overhead + network flight) and ``lag_us`` time after service (the
        response flight); both are folded into the booking math so the whole
        job costs a single engine event.  The caller yields the returned
        delay (or, for a post, hands it to ``call_later``).
        """
        self.messages += 1
        now = self.engine._now
        arrival = now + lead_us
        free = self._free
        start = free[0]
        if start < arrival:
            start = arrival
        finish = start + service_us
        heapreplace(free, finish)
        return finish + lag_us - now

    def sample(self) -> dict:
        """Point-in-time snapshot (``repro.obs`` timelines).

        ``busy_slots`` counts servers booked past *now*; ``backlog_us`` is
        how long a job arriving now would wait for a server.
        """
        now = self.engine._now
        free = self._free
        backlog = free[0] - now
        return {
            "backlog_us": backlog if backlog > 0.0 else 0.0,
            "busy_slots": sum(1 for t in free if t > now),
            "slots": len(free),
            "messages": self.messages,
        }
