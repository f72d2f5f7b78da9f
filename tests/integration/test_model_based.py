"""Model-based testing: the byte-level DM systems vs an in-memory reference.

Random operation sequences run against both the system under test and a
plain dict model.  Without capacity pressure the cache must behave exactly
like the dict; under capacity pressure, any value returned must still be the
most recently written one (caches may forget, never corrupt).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DmKvsCluster, ShardLruCluster
from repro.core import DittoCluster, DittoConfig

KEYS = [b"key-%d" % i for i in range(12)]

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["get", "set", "delete"]),
        st.integers(0, len(KEYS) - 1),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=60,
)


def _value(key_index: int, version: int) -> bytes:
    return b"value-%d-%d" % (key_index, version) + b"." * (version * 7)


def _drive(run, client, model, operations, supports_delete=True):
    for op, key_index, version in operations:
        key = KEYS[key_index]
        if op == "set":
            run(client.set(key, _value(key_index, version)))
            model[key] = _value(key_index, version)
        elif op == "get":
            got = run(client.get(key))
            expected = model.get(key)
            assert got == expected, (op, key, got, expected)
        elif supports_delete and op == "delete":
            got = run(client.delete(key))
            assert got == (key in model)
            model.pop(key, None)


class TestDittoAgainstDict:
    @settings(max_examples=25, deadline=None)
    @given(ops_strategy)
    def test_uncontended_matches_dict(self, operations):
        cluster = DittoCluster(
            capacity_objects=64, object_bytes=64, num_clients=1, seed=2
        )
        _drive(cluster.engine.run_process, cluster.clients[0], {}, operations)

    @settings(max_examples=15, deadline=None)
    @given(ops_strategy)
    def test_values_never_corrupt_under_eviction(self, operations):
        """Tiny cache: keys may vanish, but present values must be current."""
        cluster = DittoCluster(
            capacity_objects=4, object_bytes=64, num_clients=1, seed=2
        )
        run = cluster.engine.run_process
        client = cluster.clients[0]
        model = {}
        for op, key_index, version in operations:
            key = KEYS[key_index]
            if op in ("set", "delete") and op == "set":
                run(client.set(key, _value(key_index, version)))
                model[key] = _value(key_index, version)
            elif op == "delete":
                run(client.delete(key))
                model.pop(key, None)
            else:
                got = run(client.get(key))
                if got is not None:
                    assert got == model.get(key)
        assert cluster.budget.used_bytes <= cluster.budget.limit_bytes

    @settings(max_examples=10, deadline=None)
    @given(ops_strategy, st.sampled_from(["lruk", "gdsf", "lrfu"]))
    def test_extension_policies_match_dict(self, operations, policy):
        cluster = DittoCluster(
            capacity_objects=64,
            object_bytes=64,
            num_clients=1,
            config=DittoConfig(policies=(policy,)),
            seed=2,
        )
        _drive(cluster.engine.run_process, cluster.clients[0], {}, operations)


class TestBaselinesAgainstDict:
    @settings(max_examples=15, deadline=None)
    @given(ops_strategy)
    def test_kvs_matches_dict(self, operations):
        cluster = DmKvsCluster(capacity_objects=64, num_clients=1)
        _drive(
            cluster.engine.run_process,
            cluster.clients[0],
            {},
            operations,
            supports_delete=False,
        )

    @settings(max_examples=15, deadline=None)
    @given(ops_strategy)
    def test_shard_lru_matches_dict(self, operations):
        cluster = ShardLruCluster(
            capacity_objects=64, num_clients=1, shards=4, backoff_us=0.0
        )
        _drive(
            cluster.engine.run_process,
            cluster.clients[0],
            {},
            operations,
            supports_delete=False,
        )
