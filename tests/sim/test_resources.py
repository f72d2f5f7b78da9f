"""Unit tests for the Resource booking: FIFO queueing onto k servers."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Engine, Resource, SimulationError


def test_resource_capacity_one_serializes():
    engine = Engine()
    resource = Resource(engine, capacity=1)
    done = []

    def worker(name):
        yield resource.book(10.0)
        done.append((name, engine.now))

    for name in "abc":
        engine.spawn(worker(name))
    engine.run()
    assert done == [("a", 10.0), ("b", 20.0), ("c", 30.0)]


def test_resource_parallel_capacity():
    engine = Engine()
    resource = Resource(engine, capacity=2)
    done = []

    def worker(name):
        yield resource.book(10.0)
        done.append((name, engine.now))

    for name in "abcd":
        engine.spawn(worker(name))
    engine.run()
    # two at a time: a,b finish at 10; c,d at 20
    assert [t for _, t in done] == [10.0, 10.0, 20.0, 20.0]


def test_resource_rejects_bad_capacity():
    engine = Engine()
    with pytest.raises(SimulationError):
        Resource(engine, 0)


def test_nic_queueing_delay():
    engine = Engine()
    nic = Resource(engine)
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


def test_nic_variable_service_times():
    engine = Engine()
    nic = Resource(engine)
    finish = []

    def sender(cost):
        yield nic.book(cost)
        finish.append((cost, engine.now))

    engine.spawn(sender(1.0))
    engine.spawn(sender(5.0))
    engine.spawn(sender(1.0))
    engine.run()
    assert finish == [(1.0, 1.0), (5.0, 6.0), (1.0, 7.0)]


def test_lead_and_lag_fold_into_the_delay():
    engine = Engine()
    nic = Resource(engine)
    assert nic.book(2.0, lead_us=3.0, lag_us=4.0) == 9.0  # serves 3..5
    assert nic.book(2.0, lead_us=1.0) == 7.0  # arrives at 1, waits to 5


def test_sample_counts_busy_slots_and_earliest_backlog():
    engine = Engine()
    cpu = Resource(engine, capacity=3)
    cpu.book(4.0)
    cpu.book(6.0)
    assert cpu.sample() == {
        "backlog_us": 0.0, "busy_slots": 2, "slots": 3, "messages": 2,
    }
    cpu.book(5.0)
    assert cpu.sample()["backlog_us"] == 4.0


def test_a_killed_booker_keeps_its_slot_booked():
    engine = Engine()
    cpu = Resource(engine, capacity=1)
    done = []

    def worker(name):
        yield cpu.book(10.0)
        done.append((name, engine.now))

    victim = engine.spawn(worker("victim"))
    engine.run(until=1.0)
    victim.kill()
    engine.spawn(worker("next"))
    engine.run()
    assert done == [("next", 20.0)]


def fifo_reference(jobs, servers):
    """Finish time of each ``(arrival, service)`` job at a FIFO queue with
    ``servers`` servers, stepping through arrivals and completions in time
    order: at each instant, completions free their servers first, then
    arrivals join the queue, then the queue's head takes a free server."""
    finish = [None] * len(jobs)
    queue = deque()
    busy = []  # finish times of the jobs in service
    arrived = 0
    while arrived < len(jobs) or queue or busy:
        events = busy[:]
        if arrived < len(jobs):
            events.append(jobs[arrived][0])
        now = min(events)
        busy = [t for t in busy if t > now]
        while arrived < len(jobs) and jobs[arrived][0] <= now:
            queue.append(arrived)
            arrived += 1
        while queue and len(busy) < servers:
            job = queue.popleft()
            finish[job] = now + jobs[job][1]
            busy.append(finish[job])
    return finish


@settings(max_examples=200, deadline=None)
@given(
    servers=st.integers(1, 16),
    gaps=st.lists(st.integers(0, 8), min_size=1, max_size=60),
    services=st.lists(st.integers(0, 40), min_size=60, max_size=60),
)
def test_booking_matches_a_fifo_k_server_queue(servers, gaps, services):
    # Half-microsecond grid: every sum is exact in floating point.
    arrivals = [sum(gaps[: i + 1]) / 2 for i in range(len(gaps))]
    jobs = [(a, s / 2) for a, s in zip(arrivals, services)]
    engine = Engine()
    resource = Resource(engine, servers)
    booked = []
    for arrival, service in jobs:
        engine.run(until=arrival)
        booked.append(arrival + resource.book(service))
    assert booked == fifo_reference(jobs, servers)
    assert resource.messages == len(jobs)
