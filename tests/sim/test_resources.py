"""Unit tests for Resource / RateLimiter contention semantics."""

import pytest

from repro.sim import Engine, RateLimiter, Resource, SimulationError


def test_resource_capacity_one_serializes():
    engine = Engine()
    resource = Resource(engine, capacity=1)
    spans = []

    def worker(name):
        yield from resource.acquire()
        start = engine.now
        yield 10.0
        resource.release()
        spans.append((name, start, engine.now))

    for name in "abc":
        engine.spawn(worker(name))
    engine.run()
    assert spans == [("a", 0.0, 10.0), ("b", 10.0, 20.0), ("c", 20.0, 30.0)]


def test_resource_parallel_capacity():
    engine = Engine()
    resource = Resource(engine, capacity=2)
    done = []

    def worker(name):
        yield from resource.serve(10.0)
        done.append((name, engine.now))

    for name in "abcd":
        engine.spawn(worker(name))
    engine.run()
    # two at a time: a,b finish at 10; c,d at 20
    assert [t for _, t in done] == [10.0, 10.0, 20.0, 20.0]


def test_release_without_acquire_raises():
    engine = Engine()
    resource = Resource(engine, 1)
    with pytest.raises(SimulationError):
        resource.release()


def test_queue_length_visible():
    engine = Engine()
    resource = Resource(engine, 1)

    def worker():
        yield from resource.serve(5.0)

    for _ in range(3):
        engine.spawn(worker())
    engine.run(until=1.0)
    assert resource.in_use == 1
    assert resource.queue_length == 2


def test_rate_limiter_queueing_delay():
    engine = Engine()
    nic = RateLimiter(engine)
    finish = []

    def sender():
        yield nic.book(2.0)
        finish.append(engine.now)

    for _ in range(4):
        engine.spawn(sender())
    engine.run(until=0.0)
    assert nic.sample() == {
        "backlog_us": 8.0, "busy_slots": 1, "slots": 1, "messages": 4,
    }
    engine.run()
    assert finish == [2.0, 4.0, 6.0, 8.0]
    assert nic.sample() == {
        "backlog_us": 0.0, "busy_slots": 0, "slots": 1, "messages": 4,
    }


def test_rate_limiter_variable_service_times():
    engine = Engine()
    nic = RateLimiter(engine)
    finish = []

    def sender(cost):
        yield nic.book(cost)
        finish.append((cost, engine.now))

    engine.spawn(sender(1.0))
    engine.spawn(sender(5.0))
    engine.spawn(sender(1.0))
    engine.run()
    assert finish == [(1.0, 1.0), (5.0, 6.0), (1.0, 7.0)]


def test_resource_rejects_bad_capacity():
    engine = Engine()
    with pytest.raises(SimulationError):
        Resource(engine, 0)
