"""Discrete-event simulation engine.

The engine drives *processes*: plain Python generators that model concurrent
activities (client threads, server loops, background daemons).  Processes
communicate with the engine by yielding *commands*:

- a delay — a bare non-negative number (``float``, ``int`` or a float
  subclass such as ``numpy.float64``): resume after that many microseconds,
- :class:`Event` — resume when the event is triggered (yield the event itself),
- another :class:`Process` — resume when that process completes (join).

Nested calls inside a process use plain ``yield from``, so only the three
commands above ever reach the engine.  A negative delay raises
:class:`SimulationError` naming the process and the time.  Simulated time is
a float in **microseconds**; nothing in the engine reads the wall clock, which
keeps every simulation fully deterministic.

A process returns a value with a normal ``return`` statement; the value is
delivered to joiners and stored on :attr:`Process.result`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Optional


class SimulationError(RuntimeError):
    """Raised for engine misuse (bad yields, running a finished engine, ...)."""


class Event:
    """A one-shot condition processes can wait on.

    Yielding an event suspends the process until :meth:`trigger` is called.
    Waiting on an already-triggered event resumes immediately (same timestamp)
    with the triggered value.
    """

    __slots__ = ("_engine", "_triggered", "_value", "_waiters")

    def __init__(self, engine: "Engine"):
        self._engine = engine
        self._triggered = False
        self._value: Any = None
        self._waiters: list = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def trigger(self, value: Any = None) -> None:
        if self._triggered:
            engine = self._engine
            active = engine._active
            label = active.name if active is not None else "<no process>"
            raise SimulationError(
                f"event triggered twice (double resume at t={engine.now:.3f}us, "
                f"last active process {label!r})"
            )
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self._engine.call_later(0.0, process._step, value)

    def _apply(self, engine: "Engine", process: "Process") -> None:
        if self._triggered:
            engine.call_later(0.0, process._step, self._value)
        else:
            self._waiters.append(process)


class Process:
    """A running generator inside the engine.

    Yield a process to join it: the joiner resumes with the process's return
    value once it finishes.  If the process raised, the exception propagates
    to joiners (and to :meth:`Engine.run` if nobody joined it).
    """

    __slots__ = (
        "engine", "_gen", "_send", "done", "result", "name", "_killed", "tid"
    )

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        self.engine = engine
        self._gen = gen
        # Bound-method cache: _step runs once per event, so one attribute
        # lookup saved here is millions saved per experiment.
        self._send = gen.send
        self.done = Event(engine)
        self.result: Any = None
        self.name = name or getattr(gen, "__name__", "process")
        self._killed = False
        #: Trace lane: a small engine-unique integer identifying this process
        #: in span traces (``repro.obs``).  Processes run strictly
        #: sequentially within themselves, so spans emitted under one tid are
        #: properly nested by construction; tid 0 is reserved for code
        #: running outside any process (harness, fault-plan annotations).
        self.tid = next(engine._tids)

    @property
    def finished(self) -> bool:
        return self.done.triggered

    @property
    def killed(self) -> bool:
        return self._killed

    def kill(self) -> None:
        """Terminate the process at its current yield point (fault injection).

        Models a crashing client thread: the generator is closed where it
        stands, so ``finally`` blocks run (a held MN-side resource completes
        its service; purely client-local state is simply abandoned), any
        event the process was waiting on is ignored when it later fires, and
        joiners resume with ``None``.  Killing a finished process is a no-op.
        """
        if self._killed or self.done.triggered:
            return
        self._killed = True
        self._gen.close()
        self.done.trigger(None)

    def _step(self, value: Any = None) -> None:
        if self._killed:
            return  # a stale resume for a crashed process: drop it
        engine = self.engine
        engine._active = self
        try:
            command = self._send(value)
        except StopIteration as stop:
            self.result = stop.value
            self.done.trigger(stop.value)
            return
        except SimulationError as err:
            # Fault-injection bugs surface here (resuming a killed-and-
            # restarted process, ...); stamp the error with where and when
            # so they are traceable.
            raise SimulationError(
                f"{err} (at t={engine.now:.3f}us in process {self.name!r})"
            ) from err
        if command.__class__ is not float:
            try:
                apply = command._apply
            except AttributeError:
                # An int or a float subclass (numpy.float64) is a delay too;
                # it is pushed uncoerced, as the caller's clock type.
                if not isinstance(command, (int, float)):
                    raise SimulationError(
                        f"process {self.name!r} yielded a non-command: "
                        f"{command!r}; did you forget 'yield from'?"
                    ) from None
            else:
                apply(engine, self)
                return
        # A delay: the one check and the one heap entry.
        if command < 0:
            raise SimulationError(
                f"negative delay: {command} (at t={engine.now:.3f}us in "
                f"process {self.name!r})"
            )
        heapq.heappush(engine._heap, (
            engine._now + command, next(engine._sequence), self._step, ()))

    def _apply(self, engine: "Engine", process: "Process") -> None:
        # Yielding a Process means "join it".
        self.done._apply(engine, process)


_INFINITY = float("inf")


class Engine:
    """The event loop: a time-ordered heap of ``(when, seq, fn, args)``
    callbacks, popped and dispatched one at a time.

    ``seq`` breaks ties between same-time entries in scheduling order, so a
    run's event order depends only on what the processes yield.
    """

    __slots__ = ("_now", "_heap", "_sequence", "_active", "_tids")

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list = []
        self._sequence = itertools.count()
        #: Last process stepped — the label stamped onto SimulationErrors.
        self._active: Optional[Process] = None
        #: Trace-lane ids handed to processes (tid 0 = outside any process).
        self._tids = itertools.count(1)

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        if when < self._now:
            raise SimulationError(f"scheduling into the past: {when} < {self._now}")
        heapq.heappush(self._heap, (when, next(self._sequence), fn, args))

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        # Hot path: callers pass non-negative delays (a yielded delay is
        # checked in Process._step), so skip call_at's past-scheduling check.
        heapq.heappush(
            self._heap, (self._now + delay, next(self._sequence), fn, args)
        )

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process; it takes its first step at the current time."""
        process = Process(self, gen, name)
        self.call_later(0.0, process._step)
        return process

    def _pump(self, until: float, stop: Optional[Event]) -> None:
        """The one pop-dispatch loop behind :meth:`run` and :meth:`run_process`.

        Drains events in time order until the heap empties, the next event
        would pass ``until``, or ``stop`` (a done-event) triggers.  Every
        optimization of the hot loop lives here and nowhere else.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if stop is not None and stop._triggered:
                return
            if heap[0][0] > until:
                return
            when, _seq, fn, args = pop(heap)
            self._now = when
            fn(*args)

    def run(self, until: Optional[float] = None) -> float:
        """Run queued events, optionally stopping once time would pass ``until``.

        Returns the simulated time at which the run stopped.  With ``until``
        set, the clock is advanced to exactly ``until`` even if the heap
        drained earlier, so repeated ``run(until=...)`` calls form a timeline.
        """
        self._pump(until if until is not None else _INFINITY, None)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen`` and run the engine until it completes.

        This is the *instant mode* used when the library is driven as an
        ordinary synchronous cache: simulated time still advances (latencies
        accumulate) but the caller blocks until the operation finishes.
        """
        process = self.spawn(gen, name)
        self._pump(_INFINITY, process.done)
        if not process.finished:
            raise SimulationError(
                f"deadlock: process {process.name!r} cannot complete"
            )
        return process.result
