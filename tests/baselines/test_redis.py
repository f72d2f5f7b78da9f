"""Tests for the Redis-like monolithic baseline with live migration."""

import pytest

from repro.baselines import RedisCluster
from repro.bench import make_value, pack_key
from repro.core.layout import stable_hash64


def make(nodes=4, n_keys=200):
    cluster = RedisCluster(initial_nodes=nodes, migration_batch=16)
    cluster.load({pack_key(i): make_value(32) for i in range(n_keys)})
    cluster.add_clients(2)
    return cluster


def run(cluster, gen):
    return cluster.engine.run_process(gen)


class TestOperations:
    def test_get_hit_and_miss(self):
        cluster = make()
        client = cluster.clients[0]
        assert run(cluster, client.get(pack_key(5))) == make_value(32)
        assert run(cluster, client.get(b"missing-key")) is None
        assert client.hits == 1 and client.misses == 1

    def test_set(self):
        cluster = make()
        client = cluster.clients[0]
        run(cluster, client.set(b"new", b"val"))
        assert run(cluster, client.get(b"new")) == b"val"

    def test_request_takes_rtt_plus_cpu(self):
        cluster = make()
        t0 = cluster.engine.now
        run(cluster, cluster.clients[0].get(pack_key(1)))
        elapsed = cluster.engine.now - t0
        assert elapsed >= cluster.client_rtt_us

    def test_routing_stable_without_migration(self):
        cluster = make(nodes=4)
        key_hash = stable_hash64(pack_key(42))
        node, redirected = cluster.route(key_hash)
        assert node == key_hash % 4
        assert redirected is False


class TestMigration:
    def test_scale_out_completes_and_activates(self):
        cluster = make(nodes=2, n_keys=100)
        cluster.scale(4)
        assert cluster.migration is not None
        cluster.engine.run()
        assert cluster.migration is None
        assert cluster.active_nodes == 4
        assert len(cluster.migrations_done) == 1
        done = cluster.migrations_done[0]
        assert done.finished_at > done.started_at

    def test_migration_takes_time_proportional_to_keys(self):
        def duration(n_keys):
            cluster = make(nodes=2, n_keys=n_keys)
            cluster.scale(4)
            cluster.engine.run()
            mig = cluster.migrations_done[0]
            return mig.finished_at - mig.started_at

        assert duration(400) > duration(50)

    def test_scale_in_reclaims_after_migration(self):
        cluster = make(nodes=4, n_keys=100)
        cluster.scale(2)
        assert cluster.provisioned_nodes == 4  # reclamation delayed
        cluster.engine.run()
        assert cluster.provisioned_nodes == 2
        assert cluster.active_nodes == 2

    def test_data_intact_after_scaling(self):
        cluster = make(nodes=2, n_keys=100)
        cluster.scale(4)
        cluster.engine.run()
        client = cluster.clients[0]
        for i in range(100):
            assert run(cluster, client.get(pack_key(i))) is not None

    def test_redirects_happen_during_migration(self):
        cluster = make(nodes=2, n_keys=400)
        engine = cluster.engine

        def reader(client):
            for i in range(400):
                yield from client.get(pack_key(i))

        cluster.scale(4)
        engine.spawn(reader(cluster.clients[0]))
        engine.run()
        assert cluster.redirects > 0

    def test_a_request_in_flight_when_scale_in_reclaims_its_owner_bounces(self):
        # One batch moves every key of node 1 to node 0; a Get routed to
        # node 1 just before it lands finds the node reclaimed on arrival.
        cluster = RedisCluster(
            initial_nodes=2, migration_batch=1024, migration_duty_cycle=1.0
        )
        items = {pack_key(i): make_value(32) for i in range(100)}
        cluster.load(items)
        cluster.add_clients(1)
        moving = [k for k in items if stable_hash64(k) % 2 == 1]
        lands = 2 * len(moving) * cluster.migration_key_cpu_us
        cluster.scale(1)
        issued = lands - 10.0
        cluster.engine.run(until=issued)
        assert cluster.route(stable_hash64(moving[0])) == (1, False)

        assert run(cluster, cluster.clients[0].get(moving[0])) == items[moving[0]]
        assert cluster.provisioned_nodes == 1
        assert cluster.redirects == 1
        assert cluster.nodes[0].served == 1
        rtt = cluster.client_rtt_us
        # Half-RTT out, the bounce's RTT, the new owner's CPU, half-RTT back.
        assert cluster.engine.now == pytest.approx(
            issued + 2 * rtt + cluster.op_cpu_us
        )

    def test_moved_fraction_monotonic(self):
        cluster = make(nodes=2, n_keys=300)
        cluster.scale(4)
        fractions = []
        for _ in range(20):
            cluster.engine.run(until=cluster.engine.now + 100.0)
            if cluster.migration is not None:
                fractions.append(cluster.migration.fraction)
        assert fractions == sorted(fractions)

    def test_double_scale_rejected(self):
        cluster = make(nodes=2, n_keys=500)
        cluster.scale(4)
        with pytest.raises(RuntimeError):
            cluster.scale(8)

    def test_noop_scale(self):
        cluster = make(nodes=2)
        cluster.scale(2)
        assert cluster.migration is None
