"""The real load generator: one ``drive`` per client's closed loop,
exactly the ops asked for, and its CLI end to end against a live
cluster."""

import asyncio
import json

import pytest

from repro.runtime import client as runtime_client
from repro.runtime import loadgen
from repro.runtime.harness import RealClusterHarness


@pytest.fixture(scope="module")
def harness():
    with RealClusterHarness(capacity_objects=512, num_clients=4,
                            seed=3) as launched:
        yield launched
    assert launched.leak_report()["clean"]


@pytest.mark.parametrize("preload", [0, 30])
def test_run_load_drives_each_client_loop_once(harness, monkeypatch, preload):
    # The seam: ``Harness.launch`` and the preload go through the
    # runtime's ``spawn``, which runs each generator under one ``drive``.
    drives = []
    real_drive = runtime_client.drive

    def counting_drive(gen):
        drives.append(gen)
        return real_drive(gen)

    monkeypatch.setattr(runtime_client, "drive", counting_drive)
    report = asyncio.run(loadgen.run_load(
        harness.descriptor(), clients=4, ops=200, n_keys=100,
        preload=preload, seed=3,
    ))
    assert len(drives) == 4 + (1 if preload else 0)
    assert report["failed_ops"] == 0
    # ``ops`` counts completed ops: all of them, 50 per client.
    assert report["ops"] == 200


@pytest.mark.parametrize("clients, ops", [(3, 10), (4, 2)])
def test_run_load_runs_exactly_the_ops_asked_for(harness, clients, ops):
    report = asyncio.run(loadgen.run_load(
        harness.descriptor(), clients=clients, ops=ops, n_keys=100, seed=3,
    ))
    assert report["ops"] + report["failed_ops"] == ops


def test_cli_writes_the_report_it_prints(harness, tmp_path, capsys):
    descriptor = tmp_path / "cluster.json"
    descriptor.write_text(json.dumps(harness.descriptor()))
    out = tmp_path / "report.json"
    assert loadgen.main([
        "--descriptor", str(descriptor), "--clients", "3", "--ops", "90",
        "--keys", "60", "--preload", "20", "--seed", "5",
        "--json", str(out),
    ]) == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(out.read_text())
    assert printed == written
    assert written["clients"] == 3
    assert written["ops"] == 90 and written["failed_ops"] == 0
    assert written["ops_per_s"] > 0
    assert written["counters"]["rdma_read"] > 0
    assert [row["node_id"] for row in written["nodes"]] == [0]
