"""Tests for YCSB workload generation."""

import hashlib
import json

import pytest

from repro.workloads import YCSBConfig, YCSB_MIXES, make_ycsb


class TestMixes:
    @pytest.mark.parametrize(
        "workload,read_frac", [("A", 0.5), ("B", 0.95), ("C", 1.0)]
    )
    def test_read_fractions(self, workload, read_frac):
        wl = make_ycsb(workload, n_keys=1000, seed=2)
        requests = wl.requests(20_000)
        reads = sum(1 for op, _ in requests if op == "read")
        assert reads / len(requests) == pytest.approx(read_frac, abs=0.02)

    def test_workload_c_is_read_only(self):
        wl = make_ycsb("C", n_keys=100, seed=1)
        assert all(op == "read" for op, _ in wl.requests(5000))

    def test_workload_a_has_updates_not_inserts(self):
        wl = make_ycsb("A", n_keys=100, seed=1)
        ops = {op for op, _ in wl.requests(5000)}
        assert ops == {"read", "update"}

    def test_workload_d_inserts_new_keys(self):
        wl = make_ycsb("D", n_keys=1000, seed=1)
        requests = wl.requests(10_000)
        inserts = [key for op, key in requests if op == "insert"]
        assert len(inserts) == pytest.approx(500, abs=100)
        # inserts extend the key space monotonically
        assert inserts == sorted(inserts)
        assert inserts[0] == 1000

    def test_mix_table_complete(self):
        assert set(YCSB_MIXES) == {"A", "B", "C", "D"}
        for read, update, insert in YCSB_MIXES.values():
            assert read + update + insert == pytest.approx(1.0)


class TestConfig:
    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            YCSBConfig(workload="Z")

    def test_lowercase_accepted(self):
        assert YCSBConfig(workload="c").workload == "C"

    def test_keys_in_range(self):
        wl = make_ycsb("B", n_keys=500, seed=3)
        assert all(0 <= key < 500 for _, key in wl.requests(5000))

    def test_deterministic(self):
        a = make_ycsb("A", n_keys=100, seed=9).requests(100)
        b = make_ycsb("A", n_keys=100, seed=9).requests(100)
        assert a == b


@pytest.mark.parametrize("workload, seed, client_id, digest", [
    ("A", 0, 0,
     "24e6443bfe9d763d58f548f60958028d6fcceec5aca8c7464776247ae21ef1e1"),
    ("B", 1, 3,
     "3a7da26d86e7c8c1893f64f9d62ce5abf24a23d2f40e1b20a4df8a68f7bb5ef8"),
    ("C", 2, 1,
     "c24d0216fe0d96447f913d25bea444b08d28ec4c92b9a5b2cbbd6de353b00117"),
    ("D", 0, 0,
     "75670a6cb2949cef9dc504e9827034eb3fff2c3c775ffe4b979fad4548932c81"),
    ("D", 7, 2,
     "61c246cc3526840c78149379d99dbc451750772074e4dbc4e55ae2cedc5290f4"),
    ("D", 42, 5,
     "c65749dfd9ea277ce92da24bb88ca950744e6d94867c59ad055176a476cb848f"),
])
def test_request_streams_are_pinned(workload, seed, client_id, digest):
    """Two consecutive ``requests`` calls hash to the digests of the
    per-request generator that YCSB-D's one-draw build replaced: every
    op, key and Python type unchanged (``json`` rejects numpy ints)."""
    wl = make_ycsb(workload, n_keys=5000, seed=seed, client_id=client_id)
    sha = hashlib.sha256()
    for _ in range(2):
        sha.update(json.dumps(wl.requests(3000)).encode())
    assert sha.hexdigest() == digest
