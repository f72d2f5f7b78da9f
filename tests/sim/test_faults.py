"""Unit tests for the fault-injection framework (plans and injector)."""

import random

import pytest

from repro.sim import (
    ClientCrash,
    DropWindow,
    Engine,
    FaultInjector,
    FaultPlan,
    LatencySpike,
    NodeOutage,
    RpcFailure,
)
from repro.sim.faults import DOWN, DROP, OK


def make_plan():
    return FaultPlan(
        drops=(DropWindow(10.0, 20.0, prob=0.5, node_id=1, verbs=("read",)),),
        spikes=(LatencySpike(5.0, 30.0, extra_us=7.0),),
        outages=(NodeOutage(node_id=0, start_us=40.0, end_us=50.0),),
        rpc_failures=(RpcFailure(15.0, 25.0),),
        client_crashes=(ClientCrash(client_index=2, at_us=12.5),),
        seed=99,
    )


class TestFaultPlan:
    def test_empty(self):
        assert FaultPlan().empty
        assert not make_plan().empty

    def test_dict_roundtrip(self):
        plan = make_plan()
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone == plan

    def test_to_dict_is_json_safe(self):
        import json

        json.dumps(make_plan().to_dict())

    def test_shifted_moves_every_window(self):
        plan = make_plan().shifted(100.0)
        assert plan.drops[0].start_us == 110.0
        assert plan.spikes[0].end_us == 130.0
        assert plan.outages[0].start_us == 140.0
        assert plan.rpc_failures[0].end_us == 125.0
        assert plan.client_crashes[0].at_us == 112.5
        assert plan.seed == 99

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            DropWindow(10.0, 5.0)
        with pytest.raises(ValueError):
            DropWindow(0.0, 1.0, prob=1.5)
        with pytest.raises(ValueError):
            NodeOutage(0, 10.0, 5.0)
        with pytest.raises(ValueError):
            LatencySpike(0.0, 1.0, extra_us=-2.0)


class FakeEpochClock:
    """A memory-node server's gate clock with time under test control:
    ``now`` is microseconds since the arm instant."""

    def __init__(self):
        self.now = 0.0


class TestFaultInjector:
    """The gate cases, on the sim's configuration: the engine is the clock
    and one unscoped injector serves every node."""

    node_scope = None

    def make(self, plan=None):
        clock = Engine()
        return FaultInjector(clock, plan, node_scope=self.node_scope), clock

    def advance(self, clock, t):
        def proc():
            yield t - clock.now

        clock.run_process(proc())

    def test_inert_without_plan(self):
        injector, _ = self.make()
        assert injector.verb_outcome(0, "read") == (OK, 0.0)

    def test_outage_window(self):
        injector, clock = self.make(
            FaultPlan(outages=(NodeOutage(0, 10.0, 20.0),))
        )
        assert injector.verb_outcome(0, "read") == (OK, 0.0)
        self.advance(clock, 10.0)
        assert injector.verb_outcome(0, "read")[0] == DOWN
        assert injector.verb_outcome(1, "read") == (OK, 0.0)
        self.advance(clock, 19.0)
        assert injector.verb_outcome(0, "write")[0] == DOWN
        assert injector.verb_outcome(1, "write") == (OK, 0.0)
        self.advance(clock, 20.0)
        assert injector.verb_outcome(0, "read") == (OK, 0.0)

    def test_drop_window_edges(self):
        injector, clock = self.make(
            FaultPlan(drops=(DropWindow(10.0, 20.0, verbs=("read",)),))
        )
        for now, kind in ((9.5, OK), (10.0, DROP), (19.5, DROP), (20.0, OK)):
            self.advance(clock, now)
            assert injector.verb_outcome(0, "read") == (kind, 0.0)
            assert injector.verb_outcome(0, "write") == (OK, 0.0)

    def test_drop_scoping_by_node_and_verb(self):
        injector, _ = self.make(
            FaultPlan(drops=(DropWindow(0.0, 10.0, node_id=1, verbs=("cas",)),)),
        )
        assert injector.verb_outcome(1, "cas")[0] == DROP
        assert injector.verb_outcome(1, "read")[0] == OK
        assert injector.verb_outcome(0, "cas")[0] == OK

    def test_latency_spikes_accumulate(self):
        injector, clock = self.make(
            FaultPlan(
                spikes=(
                    LatencySpike(0.0, 10.0, extra_us=3.0),
                    LatencySpike(0.0, 20.0, extra_us=4.0),
                )
            ),
        )
        assert injector.verb_outcome(0, "read") == (OK, 7.0)
        self.advance(clock, 15.0)
        assert injector.verb_outcome(0, "read") == (OK, 4.0)

    def test_rpc_failures_compile_to_rpc_drops(self):
        injector, _ = self.make(FaultPlan(rpc_failures=(RpcFailure(0.0, 10.0),)))
        assert injector.verb_outcome(0, "rpc")[0] == DROP
        assert injector.verb_outcome(0, "read")[0] == OK

    def test_probabilistic_drops_are_seed_deterministic(self):
        def outcomes(seed):
            injector, _ = self.make(
                FaultPlan(drops=(DropWindow(0.0, 10.0, prob=0.5),), seed=seed)
            )
            return [injector.verb_outcome(0, "read")[0] for _ in range(64)]

        assert outcomes(1) == outcomes(1)
        assert outcomes(1) != outcomes(2)  # astronomically unlikely to match
        assert DROP in outcomes(1) and OK in outcomes(1)

    def test_rng_stream_is_the_plan_seed_scoped_by_node(self):
        """The substrates' one divergence: an unscoped injector draws from
        ``Random(seed)``, a node's own from ``Random(seed * 1_000_003 + id)``."""
        plan = FaultPlan(drops=(DropWindow(0.0, 10.0, prob=0.5),), seed=7)

        def flips(scope):
            injector = FaultInjector(self.make()[1], plan, node_scope=scope)
            return [injector.verb_outcome(0, "read")[0] for _ in range(64)]

        def reference(seed):
            rng = random.Random(seed)
            return [DROP if rng.random() < 0.5 else OK for _ in range(64)]

        assert flips(None) == reference(7)
        assert flips(1) == flips(1) == reference(7 * 1_000_003 + 1)
        assert flips(2) == reference(7 * 1_000_003 + 2) != flips(1)

    def test_non_matching_verbs_leave_rng_untouched(self):
        injector, _ = self.make(
            FaultPlan(drops=(DropWindow(0.0, 10.0, prob=0.5, verbs=("cas",)),), seed=3),
        )
        state = injector.rng.getstate()
        injector.verb_outcome(0, "read")
        assert injector.rng.getstate() == state
        injector.verb_outcome(0, "cas")
        assert injector.rng.getstate() != state

    def test_load_with_offset(self):
        injector, clock = self.make()
        injector.load(FaultPlan(outages=(NodeOutage(0, 0.0, 5.0),)), offset_us=50.0)
        assert injector.verb_outcome(0, "read")[0] == OK
        self.advance(clock, 51.0)
        assert injector.verb_outcome(0, "read")[0] == DOWN

    def test_verdicts_tally_every_fate(self):
        injector, clock = self.make(FaultPlan(
            drops=(DropWindow(10.0, 20.0),),
            spikes=(LatencySpike(20.0, 30.0, extra_us=5.0),),
            outages=(NodeOutage(0, 30.0, 40.0),),
        ))
        for now in (0.0, 10.0, 20.0, 30.0, 40.0):
            self.advance(clock, now)
            injector.verb_outcome(0, "read")
        assert injector.verdicts == {"ok": 2, "drop": 1, "down": 1, "spike": 1}


class TestFaultInjectorNodeScoped(TestFaultInjector):
    """The same cases on a memory-node server's configuration: an epoch
    clock (here a fake one) and the RNG stream scoped to the node."""

    node_scope = 1

    def make(self, plan=None):
        clock = FakeEpochClock()
        return FaultInjector(clock, plan, node_scope=self.node_scope), clock

    def advance(self, clock, t):
        clock.now = t
