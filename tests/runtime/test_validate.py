"""Sim-vs-real validation: both substrates run one closed loop over one
request stream, the sim half ranks the read/write mixes, and the CLI
resolves ``--ops`` per mode."""

import asyncio
import collections

import pytest

from repro.bench.runner import READ, UPDATE, pack_key
from repro.core.client import DittoClient
from repro.runtime import validate
from repro.runtime.cluster import RealCluster
from repro.runtime.harness import RealClusterHarness
from repro.runtime.loadgen import run_load, wire_key


def _record_ops(monkeypatch):
    """Every Get and Set a client starts, by client id, as ``(op, key,
    missed)``; a Get is logged when it returns, so a miss and the fill Set
    behind it stay in order."""
    calls = collections.defaultdict(list)
    get, set_ = DittoClient.get, DittoClient.set

    def recording_get(self, key):
        result = yield from get(self, key)
        calls[self.client_id].append((READ, key, result is None))
        return result

    def recording_set(self, key, value):
        calls[self.client_id].append((UPDATE, key, False))
        return (yield from set_(self, key, value))

    monkeypatch.setattr(DittoClient, "get", recording_get)
    monkeypatch.setattr(DittoClient, "set", recording_set)
    return calls


def _stream(calls, pack):
    """The ``(op, key id)`` stream a client was fed: its calls without
    the Set that fills each missed Get, every key spelled by ``pack``."""
    ids = {pack(key_id): key_id for key_id in range(validate._N_KEYS)}
    stream, fill = [], False
    for op, key, missed in calls:
        if fill:
            assert (op, ids[key]) == (UPDATE, stream[-1][1])
            fill = False
            continue
        stream.append((op, ids[key]))
        fill = missed
    return stream


def test_sim_and_real_feed_each_client_the_same_request_stream(monkeypatch):
    per_client, read_ratio = 40, 0.5
    calls = _record_ops(monkeypatch)
    # Both sides start from an empty cache: the preloads shard differently.
    monkeypatch.setattr(validate, "preload", lambda *args, **kwargs: None)
    validate.sim_run(read_ratio, warm_us=1_000.0, window_us=500.0)
    sim = {client: _stream(ops, pack_key) for client, ops in calls.items()}
    calls.clear()

    async def real(descriptor):
        cluster = RealCluster(descriptor)
        try:
            report = await run_load(
                descriptor, clients=validate._CLIENTS,
                ops=validate._CLIENTS * per_client, n_keys=validate._N_KEYS,
                theta=validate._THETA, read_ratio=read_ratio,
                value_bytes=validate._VALUE_BYTES, seed=validate._SEED,
                cluster=cluster,
            )
            await cluster.engine.drain_background()
        finally:
            await cluster.aclose()
        return report

    with RealClusterHarness(
        capacity_objects=validate._CAPACITY, num_clients=validate._CLIENTS,
        seed=validate._SEED,
    ) as harness:
        report = asyncio.run(real(harness.descriptor()))
    assert harness.leak_report()["clean"]
    assert report["failed_ops"] == 0
    real_streams = {client: _stream(ops, wire_key)
                    for client, ops in calls.items()}

    assert sorted(real_streams) == sorted(sim) == list(range(validate._CLIENTS))
    for client, stream in real_streams.items():
        assert len(stream) == per_client
        assert len(sim[client]) >= per_client
        assert sim[client][:per_client] == stream
    # Reads and writes both appear.
    ops = [op for stream in real_streams.values() for op, _ in stream]
    assert 0 < ops.count(READ) < len(ops)


def test_sim_half_ranks_read_hot_over_mixed_over_write_heavy():
    throughputs = {
        config["name"]: validate.sim_run(
            config["read_ratio"], warm_us=2_000.0, window_us=6_000.0
        )["throughput_mops"]
        for config in validate.CONFIGS
    }
    assert validate._ranking(throughputs) == [
        "read-hot", "mixed", "write-heavy"
    ]


@pytest.mark.parametrize("argv, ops", [
    (["--chaos"], 5000),
    (["--chaos", "--ops", "6000"], 6000),
    (["--chaos", "--ops", "1200"], 1200),
])
def test_chaos_ops_default_and_override(monkeypatch, tmp_path, argv, ops):
    seen = {}

    def fake_chaos(**kwargs):
        seen.update(kwargs)
        return {"real": {"ops": kwargs["ops"], "failed_ops": 0},
                "clean": True}

    monkeypatch.setattr(validate, "run_chaos_validation", fake_chaos)
    digest = tmp_path / "digest.json"
    assert validate.main(argv + ["--digest", str(digest)]) == 0
    assert seen["ops"] == ops
    assert digest.exists()


@pytest.mark.parametrize("argv", [
    ["--kill"],
    ["--chaos-plan", "plan.json"],
    ["--time-scale", "2"],
    ["--ops", "100", "--kill"],
])
def test_chaos_only_flags_need_chaos(monkeypatch, argv):
    def launched(**_kwargs):
        raise AssertionError("a run launched despite a chaos-only flag")

    monkeypatch.setattr(validate, "run_validation", launched)
    monkeypatch.setattr(validate, "run_chaos_validation", launched)
    with pytest.raises(SystemExit) as exc:
        validate.main(argv)
    assert exc.value.code == 2
