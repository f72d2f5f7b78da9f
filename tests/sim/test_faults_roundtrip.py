"""Property test: FaultPlan serialization round-trips exactly.

Fault plans are cache-key material and travel through JSON (experiment
manifests, the CI chaos job); ``from_dict(json(to_dict(plan)))`` must be the
identity for every constructible plan, including the verb filters JSON
turns into lists.  ``shifted``
must compose additively and preserve window lengths, and it and
``compile_wall`` are two uses of one affine retime, checked field by field.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.sim.faults import (
    ClientCrash,
    DropWindow,
    FaultPlan,
    LatencySpike,
    NodeOutage,
    RpcFailure,
    WALL_KINDS,
    compile_wall,
)

# Times as non-negative multiples of 0.5 us: exact in binary floating point,
# so shifting and equality stay bit-precise.
times = st.integers(min_value=0, max_value=2_000_000).map(lambda n: n / 2.0)
node_ids = st.one_of(st.none(), st.integers(min_value=0, max_value=7))
verbs = st.one_of(
    st.none(),
    st.lists(
        st.sampled_from(["read", "write", "cas", "faa", "rpc"]),
        min_size=1, max_size=3, unique=True,
    ).map(tuple),
)
probs = st.integers(min_value=0, max_value=100).map(lambda n: n / 100.0)


@st.composite
def windows(draw):
    start = draw(times)
    length = draw(times)
    return start, start + length


@st.composite
def drop_windows(draw):
    start, end = draw(windows())
    return DropWindow(start, end, prob=draw(probs), node_id=draw(node_ids),
                      verbs=draw(verbs))


@st.composite
def latency_spikes(draw):
    start, end = draw(windows())
    return LatencySpike(start, end, extra_us=draw(times),
                        node_id=draw(node_ids), verbs=draw(verbs))


@st.composite
def node_outages(draw):
    start, end = draw(windows())
    return NodeOutage(draw(st.integers(0, 7)), start, end)


@st.composite
def rpc_failures(draw):
    start, end = draw(windows())
    return RpcFailure(start, end, prob=draw(probs), node_id=draw(node_ids))


@st.composite
def client_crashes(draw):
    return ClientCrash(draw(st.integers(0, 15)), draw(times))


@st.composite
def fault_plans(draw):
    few = dict(min_size=0, max_size=3)
    return FaultPlan(
        drops=tuple(draw(st.lists(drop_windows(), **few))),
        spikes=tuple(draw(st.lists(latency_spikes(), **few))),
        outages=tuple(draw(st.lists(node_outages(), **few))),
        rpc_failures=tuple(draw(st.lists(rpc_failures(), **few))),
        client_crashes=tuple(draw(st.lists(client_crashes(), **few))),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(plan=fault_plans())
def test_to_dict_json_from_dict_is_identity(plan):
    wire = json.loads(json.dumps(plan.to_dict()))
    assert FaultPlan.from_dict(wire) == plan


@settings(max_examples=100, deadline=None)
@given(plan=fault_plans(), a=times, b=times)
def test_shifted_composes_and_round_trips(plan, a, b):
    assert plan.shifted(0.0) == plan
    assert plan.shifted(a).shifted(b) == plan.shifted(a + b)
    wire = json.loads(json.dumps(plan.shifted(a).to_dict()))
    assert FaultPlan.from_dict(wire) == plan.shifted(a)


@settings(max_examples=100, deadline=None)
@given(plan=fault_plans(), offset=times)
def test_shifted_preserves_window_lengths_and_empty(plan, offset):
    moved = plan.shifted(offset)
    assert moved.empty == plan.empty
    for name in ("drops", "spikes", "outages", "rpc_failures"):
        for before, after in zip(getattr(plan, name), getattr(moved, name)):
            assert after.end_us - after.start_us == pytest.approx(
                before.end_us - before.start_us
            )
    for before, after in zip(plan.client_crashes, moved.client_crashes):
        assert after.at_us == before.at_us + offset
        assert after.client_index == before.client_index


# Scales as multiples of 0.25: products with the half-microsecond times
# above stay exact, so the field-by-field comparison needs no tolerance.
scales = st.integers(min_value=1, max_value=400).map(lambda n: n / 4.0)

INSTANTS = ("start_us", "end_us", "at_us")
SIM_ONLY = ("client_crashes",)


def assert_affine(before_plan, after_plan, scale, offset, kinds):
    """``after_plan`` is ``before_plan`` under ``t -> t * scale + offset``."""
    assert after_plan.seed == before_plan.seed
    for kind in kinds:
        before_items = before_plan.to_dict()[kind]
        after_items = after_plan.to_dict()[kind]
        assert len(after_items) == len(before_items)
        for before, after in zip(before_items, after_items):
            for name, value in before.items():
                if name in INSTANTS:
                    assert after[name] == value * scale + offset
                elif name == "extra_us":  # a duration: scales, never shifts
                    assert after[name] == value * scale
                else:  # prob / node_id / verbs / ids: not times
                    assert after[name] == value


@settings(max_examples=100, deadline=None)
@given(plan=fault_plans(), scale=scales, offset=times)
def test_retime_is_one_affine_map_over_every_time_field(plan, scale, offset):
    assert_affine(plan, plan._retimed(scale, offset), scale, offset,
                  WALL_KINDS + SIM_ONLY)
    # Its two uses: a pure shift, and a pure scale that refuses (names and
    # leaves out) the kinds only the simulator can execute.
    assert_affine(plan, plan.shifted(offset), 1.0, offset,
                  WALL_KINDS + SIM_ONLY)
    wall, dropped = compile_wall(plan, scale)
    assert_affine(plan, wall, scale, 0.0, WALL_KINDS)
    assert dropped == tuple(k for k in SIM_ONLY if getattr(plan, k))
    assert not any(getattr(wall, kind) for kind in SIM_ONLY)
