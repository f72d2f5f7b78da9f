"""Engine-level fault support: process kill semantics and rich diagnostics."""

import pytest

from repro.sim import Engine, Event, Process, SimulationError


class TestProcessKill:
    def test_kill_stops_resumes_and_triggers_done(self):
        engine = Engine()
        steps = []

        def proc():
            steps.append("a")
            yield 10.0
            steps.append("b")

        process = engine.spawn(proc())
        engine.run(until=5.0)
        process.kill()
        assert process.killed
        assert process.done.triggered
        engine.run()
        assert steps == ["a"]  # the pending resume became a no-op

    def test_kill_runs_finally_blocks(self):
        engine = Engine()
        cleaned = []

        def proc():
            try:
                yield 10.0
            finally:
                cleaned.append(True)

        process = engine.spawn(proc())
        engine.run(until=1.0)
        process.kill()
        assert cleaned == [True]

    def test_kill_is_idempotent_and_noop_after_finish(self):
        engine = Engine()

        def proc():
            yield 1.0
            return 42

        process = engine.spawn(proc())
        engine.run()
        assert process.finished
        process.kill()  # must not clobber a finished process
        assert not process.killed
        process2 = engine.spawn(proc())
        engine.run(until=engine.now + 0.5)
        process2.kill()
        process2.kill()
        assert process2.killed

    def test_killed_waiter_wakes_dependents(self):
        engine = Engine()
        woke = []

        def sleeper():
            yield 100.0

        def waiter(process):
            yield process.done
            woke.append(engine.now)

        sleeper_proc = engine.spawn(sleeper())
        engine.spawn(waiter(sleeper_proc))
        engine.run(until=5.0)
        sleeper_proc.kill()
        engine.run()
        assert woke == [5.0]


class TestDiagnostics:
    def test_negative_timeout_names_process_and_time(self):
        engine = Engine()

        def culprit():
            yield 3.0
            yield -1.0

        engine.spawn(culprit(), name="culprit_proc")
        with pytest.raises(SimulationError) as excinfo:
            engine.run()
        message = str(excinfo.value)
        assert "t=3.000" in message
        assert "culprit_proc" in message

    def test_double_trigger_names_active_process(self):
        engine = Engine()
        event = Event(engine)

        def bad():
            yield 2.0
            event.trigger(1)
            event.trigger(2)

        engine.spawn(bad(), name="double_trigger_proc")
        with pytest.raises(SimulationError) as excinfo:
            engine.run()
        message = str(excinfo.value)
        assert "double resume" in message
        assert "double_trigger_proc" in message
