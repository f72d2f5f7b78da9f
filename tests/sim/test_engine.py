"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, Event, SimulationError, Timeout


def test_time_starts_at_zero():
    assert Engine().now == 0.0


def test_timeout_advances_clock():
    engine = Engine()

    def proc():
        yield Timeout(5.0)
        yield Timeout(2.5)
        return "done"

    result = engine.run_process(proc())
    assert result == "done"
    assert engine.now == pytest.approx(7.5)


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_processes_interleave_in_time_order():
    engine = Engine()
    order = []

    def proc(name, delay):
        yield Timeout(delay)
        order.append((name, engine.now))

    engine.spawn(proc("slow", 10.0))
    engine.spawn(proc("fast", 1.0))
    engine.spawn(proc("mid", 5.0))
    engine.run()
    assert order == [("fast", 1.0), ("mid", 5.0), ("slow", 10.0)]


def test_run_until_stops_and_advances_clock_exactly():
    engine = Engine()
    fired = []

    def proc():
        yield Timeout(100.0)
        fired.append(engine.now)

    engine.spawn(proc())
    engine.run(until=50.0)
    assert engine.now == 50.0
    assert fired == []
    engine.run(until=150.0)
    assert fired == [100.0]
    assert engine.now == 150.0


def test_event_wakes_waiters_with_value():
    engine = Engine()
    event = Event(engine)
    results = []

    def waiter(name):
        value = yield event
        results.append((name, value, engine.now))

    def trigger():
        yield Timeout(3.0)
        event.trigger("payload")

    engine.spawn(waiter("a"))
    engine.spawn(waiter("b"))
    engine.spawn(trigger())
    engine.run()
    assert results == [("a", "payload", 3.0), ("b", "payload", 3.0)]


def test_wait_on_already_triggered_event_resumes_immediately():
    engine = Engine()
    event = Event(engine)
    event.trigger(42)

    def proc():
        value = yield event
        return value

    assert engine.run_process(proc()) == 42


def test_event_cannot_trigger_twice():
    engine = Engine()
    event = Event(engine)
    event.trigger()
    with pytest.raises(SimulationError):
        event.trigger()


def test_join_returns_child_result():
    engine = Engine()

    def child():
        yield Timeout(4.0)
        return "child-result"

    def parent():
        process = engine.spawn(child())
        value = yield process
        return value, engine.now

    assert engine.run_process(parent()) == ("child-result", 4.0)


def test_yield_from_composes_subroutines():
    engine = Engine()

    def inner():
        yield Timeout(1.0)
        return 10

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    assert engine.run_process(outer()) == 20
    assert engine.now == pytest.approx(2.0)


def test_bad_yield_raises_helpful_error():
    engine = Engine()

    def proc():
        yield 123  # not a command

    engine.spawn(proc())
    with pytest.raises(SimulationError, match="non-command"):
        engine.run()


def test_run_process_detects_deadlock():
    engine = Engine()
    event = Event(engine)  # never triggered

    def proc():
        yield event

    with pytest.raises(SimulationError, match="deadlock"):
        engine.run_process(proc())


def test_scheduling_into_past_rejected():
    engine = Engine()
    engine.run(until=10.0)
    with pytest.raises(SimulationError):
        engine.call_at(5.0, lambda: None)


def test_fifo_order_for_same_timestamp():
    engine = Engine()
    order = []
    for i in range(5):
        engine.call_later(1.0, order.append, i)
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_spawn_returns_process_with_result():
    engine = Engine()

    def proc():
        yield Timeout(1.0)
        return 99

    p = engine.spawn(proc())
    assert not p.finished
    engine.run()
    assert p.finished
    assert p.result == 99


def test_process_error_escapes_run_unwrapped_and_engine_resumes():
    # A raw process exception reaches the caller as itself (only
    # SimulationErrors get a where-and-when stamp), and the events still
    # pending stay queued, so the simulation can be run on.
    engine = Engine()
    pause = Timeout(1.0)

    def ping():
        for _ in range(40):
            yield pause

    def bad():
        for _ in range(10):
            yield pause
        raise ValueError("boom")

    for _ in range(10):
        engine.spawn(ping())
    engine.spawn(bad())
    with pytest.raises(ValueError, match="boom"):
        engine.run()
    assert engine.now == 10.0
    engine.run()  # the surviving processes finish
    assert engine.now == 40.0


def test_run_until_then_run_continues_cleanly():
    engine = Engine()
    trace = []
    pause = Timeout(1.0)

    def ping(pid):
        for i in range(10):
            yield pause
            trace.append((pid, i, engine.now))

    for pid in range(10):
        engine.spawn(ping(pid))
    engine.run(until=5.0)
    assert engine.now == 5.0
    assert len(trace) == 10 * 5
    engine.run()  # resume past the horizon
    assert trace[-1][2] == 10.0
    assert engine.now == 10.0
    assert len(trace) == 10 * 10
