"""Adaptive eviction weights replicate through the consensus log.

Before this, the learned expert weights lived only in the leader's
process: a leader crash would reset the cache's learned eviction policy
to uniform.  Now ``update_weights`` is a replicated command —
:class:`~repro.core.consensus.MetadataState` adopts the live
:class:`~repro.core.adaptive.GlobalWeights`, every replica folds the same
committed penalty sums into its own copy, and a successor leader carries
the learned state forward.
"""

import pytest

from repro.core.adaptive import GlobalWeights
from repro.core.consensus import ControllerGroup, MetadataState
from repro.core.elasticity import MembershipTable
from repro.memory.controller import SegmentState
from repro.sim import Engine
from repro.sim.faults import ControllerCrash, FaultInjector, FaultPlan

MB = 1 << 20


def build_group(n_replicas=3, seed=7, faults=None):
    engine = Engine()
    physical = MetadataState(MembershipTable([0]))
    physical.adopt_node(SegmentState(0, 0, 4 * MB))
    weights = GlobalWeights(2, learning_rate=0.1)
    physical.adopt_weights(weights)
    group = ControllerGroup(engine, physical, n_replicas, seed, faults=faults)
    return engine, group, weights


def submit(engine, client, command):
    return engine.run_process(client.submit(command))


def test_update_weights_commits_and_folds_into_live_weights():
    engine, group, weights = build_group()
    client = group.make_client()
    before = list(weights.weights)
    result = submit(engine, client, ("update_weights", 0, 4.0, 0.0))
    # The committed fold penalized expert 0 and is visible both in the
    # submit result and in the live (physical) weights object.
    assert result == weights.weights
    assert weights.weights[0] < before[0]
    assert weights.weights[1] > before[1]


def test_every_replica_converges_to_the_same_weights():
    engine, group, weights = build_group()
    client = group.make_client()
    for sums in ((3.0, 0.5), (0.0, 2.0), (1.5, 1.5)):
        submit(engine, client, ("update_weights", 0, *sums))
    engine.run()  # quiesce: followers apply the full committed log
    for replica in group.replicas:
        assert replica.state.weights is not None
        assert replica.state.weights.weights == pytest.approx(
            weights.weights
        )


def test_clone_copies_weights_without_the_update_hook():
    physical = MetadataState(MembershipTable([0]))
    weights = GlobalWeights(2, learning_rate=0.1)
    weights.on_update = lambda w: None
    physical.adopt_weights(weights)
    weights.handle_update([2.0, 0.0])
    copy = physical.clone()
    assert copy.weights is not weights
    assert copy.weights.weights == pytest.approx(weights.weights)
    # Replica copies must not re-fire sim-side RDMA publication hooks.
    assert copy.weights.on_update is None


def test_learned_weights_survive_leader_crash():
    engine = Engine()
    injector = FaultInjector(engine)
    physical = MetadataState(MembershipTable([0]))
    physical.adopt_node(SegmentState(0, 0, 4 * MB))
    weights = GlobalWeights(2, learning_rate=0.1)
    physical.adopt_weights(weights)
    group = ControllerGroup(engine, physical, 3, 7, faults=injector)
    engine.run(until=5_000)
    client = group.make_client()
    submit(engine, client, ("update_weights", 0, 5.0, 0.0))
    learned = list(weights.weights)
    assert learned[0] < learned[1]  # learning happened before the crash

    old = group.leader_id()
    injector.load(
        FaultPlan(controller_crashes=(ControllerCrash(old, 0.0, 8_000.0),)),
        offset_us=engine.now,
    )
    # Submitting through the outage forces the election; the fold still
    # applies exactly once despite any timed-out retries.
    submit(engine, client, ("update_weights", 0, 0.0, 1.0))
    new_leader = group.leader_id()
    assert new_leader != old
    engine.run(until=engine.now + 20_000)
    engine.run()
    successor = group.replicas[new_leader].state.weights
    assert successor.weights == pytest.approx(weights.weights)
    # The pre-crash learning is still reflected, not reset to uniform.
    assert successor.weights[0] < 0.5
