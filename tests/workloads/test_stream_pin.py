"""Byte-for-byte pin of every seeded stream the workload layer draws.

The figure goldens check tables only, so a change to how a generator
draws (a new sampler, a bulk interleave) that moved a single key could
hide behind a figure that happens not to print it.  Each case below hashes
the dtype, shape and bytes of one generator's seeded output (consecutive
calls included, so a stream's continuation is pinned too).  Re-record a
digest from the assertion message only for a change that is *meant* to
alter a drawn value, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.bench.runner import zipf_feed
from repro.workloads import (
    WORKLOAD_CATALOG,
    LatestGenerator,
    UniformGenerator,
    ZipfianGenerator,
    concurrent_view,
    corpus,
    interleave_shards,
    looping_trace,
    make_ycsb,
    mix_traces,
    phase_switch_trace,
    scan_polluted_trace,
    shard_trace,
    shifting_hotspot_trace,
    webmail_like_trace,
    zipfian_trace,
)


def _zipf(n_keys, theta, seed, scramble):
    gen = ZipfianGenerator(n_keys, theta=theta, seed=seed, scramble=scramble)
    return [gen.sample(20_000), gen.sample(7), gen.sample(30_000)]


def _latest():
    gen = LatestGenerator(3000, seed=5)
    return [gen.sample(5000, newest=2999),
            gen.sample(5000, newest=np.arange(3000, 8000))]


def _corpus():
    out = []
    for i, spec in enumerate(corpus(74, seed=3)):
        out.append(np.frombuffer(f"{spec.name}:{spec.n_keys}".encode(), np.uint8))
        out.append(spec.trace(6_000, seed=i))
    return out


def _catalog():
    return [spec.trace(20_000, seed=9) for spec in WORKLOAD_CATALOG.values()]


def _ycsb_arrays(workload, seed, client_id):
    # Recorded through ``Feed.from_requests(wl.requests(count))`` before
    # YCSB built its arrays directly: the two must agree byte for byte.
    wl = make_ycsb(workload, n_keys=5000, seed=seed, client_id=client_id)
    out = []
    for count in (3000, 1000):
        out += wl.arrays(count)
    return out


def _ycsb_requests(workload, seed, client_id):
    wl = make_ycsb(workload, n_keys=5000, seed=seed, client_id=client_id)
    text = json.dumps([wl.requests(3000), wl.requests(1000)])
    return [np.frombuffer(text.encode(), np.uint8)]


def _zipf_feed():
    feed = zipf_feed(20_000, 1000, 0.99, 0.5, seed=7)
    return [feed._ops, feed._keys]


def _mix():
    traces = [
        zipfian_trace(9_000, 2048, seed=1),
        np.arange(1000, 1013, dtype=np.int64),
        shifting_hotspot_trace(4_000, 2048, seed=2) + 10_000,
    ]
    return [mix_traces(traces, [3, 1, 2], 30_000, seed=2),
            mix_traces(traces[:1], [1], 100, seed=0)]


def _shards():
    trace = zipfian_trace(20_000, 4096, seed=4)
    return [trace[:5000], trace[5000:5001], trace[5001:5001],
            trace[5001:12_000], trace[12_000:]]


def _interleave(mode):
    out = [interleave_shards(_shards(), mode=mode, seed=seed)
           for seed in (0, 1, 11)]
    trace = np.arange(10_007, dtype=np.int64)
    out += [interleave_shards(shard_trace(trace, n), mode=mode, seed=n)
            for n in (1, 2, 7, 33, 64)]
    return out


def _concurrent():
    trace = webmail_like_trace(40_000, 4096, seed=6)
    return [concurrent_view(trace, 1),
            concurrent_view(trace, 16, seed=3),
            concurrent_view(trace, 64, seed=4),
            concurrent_view(trace, 8, mode="round_robin")]


CASES = {
    "zipf-0.99-scrambled": lambda: _zipf(5000, 0.99, 3, True),
    "zipf-1.2-plain": lambda: _zipf(4097, 1.2, 4, False),
    "zipf-0-scrambled": lambda: _zipf(1023, 0.0, 5, True),
    "zipf-one-key": lambda: _zipf(1, 0.99, 6, True),
    "zipf-1.5-2M-scrambled": lambda: _zipf(2_000_003, 1.5, 8, True),
    "uniform": lambda: [UniformGenerator(777, seed=3).sample(10_000)],
    "latest": _latest,
    "zipfian_trace": lambda: [zipfian_trace(60_000, 4096, seed=1)],
    "shifting_hotspot_trace": lambda: [
        shifting_hotspot_trace(60_000, 4096, seed=2)],
    "scan_polluted_trace": lambda: [scan_polluted_trace(60_000, 4096, seed=3)],
    "looping_trace": lambda: [looping_trace(10_000, 777, n_keys=500)],
    "phase_switch_trace": lambda: [
        phase_switch_trace(60_000, 4096, phases=4, seed=4)],
    "webmail_like_trace": lambda: [webmail_like_trace(60_000, 4096, seed=5)],
    "corpus-74": _corpus,
    "catalog": _catalog,
    "ycsb-A-arrays": lambda: _ycsb_arrays("A", 0, 0),
    "ycsb-B-arrays": lambda: _ycsb_arrays("B", 1, 3),
    "ycsb-C-arrays": lambda: _ycsb_arrays("C", 2, 1),
    "ycsb-D-arrays": lambda: _ycsb_arrays("D", 7, 2),
    "ycsb-A-requests": lambda: _ycsb_requests("A", 0, 0),
    "ycsb-B-requests": lambda: _ycsb_requests("B", 1, 3),
    "ycsb-C-requests": lambda: _ycsb_requests("C", 2, 1),
    "ycsb-D-requests": lambda: _ycsb_requests("D", 7, 2),
    "zipf_feed": _zipf_feed,
    "mix_traces": _mix,
    "interleave-round_robin": lambda: _interleave("round_robin"),
    "interleave-random": lambda: _interleave("random"),
    "concurrent_view": _concurrent,
}

DIGESTS = {
    "catalog":
        "380fd519a0ebe184b42c2d9fb0ab035da07cc5e6865be8c1f3bc03833ed4511b",
    "concurrent_view":
        "adf542ed45202d77752e344ba34d53999af24f62c777b52719be1e003e65b640",
    "corpus-74":
        "5bee1815e226e0c34dbba8770d4630e61e9cc45cbe09533f109bf71d15c51b53",
    "interleave-random":
        "606358392a577cf65ab7b64d01c9437be2d7236c4c3b2336c1b9aab282e7a2e1",
    "interleave-round_robin":
        "eaab6561027e3b097aa6901040ef06baae5feb5ab014feb616d0c9a33e12a3ca",
    "latest":
        "ce3204235048403349ada6253bc80d2bcd2a1d85fee5c15e8e8e51c1ca2c9f63",
    "looping_trace":
        "68c72424e3c2863694b6a837def9e4bd29d543805549d33372660719826b2084",
    "mix_traces":
        "b9a0a85cf98e5ab913161ed4366a974add1491553e4637250e93181cc4df89ca",
    "phase_switch_trace":
        "2139c9c7dd003d935f4fc4bc9d26bfb3aa8cf717a3aff034f37ddd44e5a838ff",
    "scan_polluted_trace":
        "4f7ef08c5869a606230d77da9212784f855afd0f1772b7bad2cabf4ab4315785",
    "shifting_hotspot_trace":
        "90e0b1fe5fa95c8954eb1f8918437ea5d2909255b95e904782023d8efd0be3c0",
    "uniform":
        "8c525705aa81bde662089ae8079b22355dcde853e52f521fa7612b3645229e3a",
    "webmail_like_trace":
        "29ef5257a3f1bfd4ecb7a7b7cb6b804a086e83c557e11a59e2052edffa900fe6",
    "ycsb-A-arrays":
        "ac024bbef3519fe6fe1b6e65756873c16a920f9b3f8ff3a8abf3c7e9bb83e62a",
    "ycsb-A-requests":
        "9152a188e512cf3f1f73b917be724607b8f1ae8a7355eb872721bb8494022520",
    "ycsb-B-arrays":
        "b14b7b89944dae33f76747e13abbf024dca45ce387fe240e1fccb8c0086b75d6",
    "ycsb-B-requests":
        "f45ecb246d43a68d2b133b929250ac217d0175e74f573c7bf42579f08da9944f",
    "ycsb-C-arrays":
        "889b959f1c637cd63b16d8a150358b44b9891a4c82140a83e63410389ccf4f2d",
    "ycsb-C-requests":
        "c3021a46dcfd29399a23c8ed8da4c18eed452ae6c56d24c6e8c97362b18d2865",
    "ycsb-D-arrays":
        "968f0d3b0a6623777c6530ae502f5ff20e787bf7b1973f0f0e0a432be16a37bc",
    "ycsb-D-requests":
        "39e84e9743de0f724c3953e63e8829e0093518cb442a23d931bfc4ac05790d9a",
    "zipf-0-scrambled":
        "6eda4a26a288c28648a89fe935f74b3252a6f86436934fa97e3666532e799004",
    "zipf-0.99-scrambled":
        "1d83ad548351fb8dd11d20b28f5a9187cded433d951718bb06b9908960f33e7d",
    "zipf-1.2-plain":
        "d63854200d15922142539b1d4570c0cbd803cfe3ce4c096d83a49d659498a8c6",
    "zipf-1.5-2M-scrambled":
        "4fdc53cdaf256ca3c77dbb03ed0f58372c563ca1473eb993a03aadd68bfe487a",
    "zipf-one-key":
        "90c6dc56a77bddc6c87ae96bac8738b670275800833829dbab21ac168ba18382",
    "zipf_feed":
        "99fb50f5b3beac88514661ac22bb7d234dc4968e1ecb3aba3bb8cff28b7048e4",
    "zipfian_trace":
        "2d757f0b403aff2bb351e787aa38628bd74c96aa56c8d381a0a23e30c4dcd5ba",
}


def _digest(arrays):
    sha = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        sha.update(f"{arr.dtype.str}{arr.shape};".encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_is_pinned(name):
    got = _digest(CASES[name]())
    assert got == DIGESTS.get(name), f"{name}: {got}"
