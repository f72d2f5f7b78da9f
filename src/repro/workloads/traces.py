"""Synthetic equivalents of the paper's real-world traces (Table 2).

The proprietary IBM / CloudPhysics / Twitter / FIU traces are not
redistributable, so each family is replaced by a generator that reproduces
the statistical property the experiments exercise — controllable LRU/LFU
affinity and affinity *changes*:

- ``zipfian_trace`` — stable popularity: frequency is a reliable signal, so
  **LFU-friendly** (object-store / storage-cache style).
- ``shifting_hotspot_trace`` — a hot working set that drifts across the key
  space: recency is the reliable signal, so **LRU-friendly** (transient
  key-value cache style).
- ``scan_polluted_trace`` — Zipfian traffic with periodic sequential scans
  that flush recency-based caches: strongly LFU-friendly (block-IO style).
- ``looping_trace`` — cyclic accesses larger than the cache (LRU's
  pathological case; MRU's best case).
- ``phase_switch_trace`` — alternates LRU- and LFU-friendly phases
  (the Figure 19 changing workload).
- ``webmail_like_trace`` — a mixture with drift, a stable popular core, and
  occasional scans, standing in for the FIU ``webmail`` trace used
  throughout §5.4-§5.6.

A seeded :func:`corpus` manufactures the "74 real-world workloads" /
"33 IBM + CloudPhysics workloads" populations used by Figures 5 and 18.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .zipf import ZipfianGenerator

#: Accesses :func:`footprint` sorts at a time.
FOOTPRINT_CHUNK = 1 << 16


def zipfian_trace(
    n_requests: int, n_keys: int, theta: float = 1.0, seed: int = 0
) -> np.ndarray:
    """Stable Zipfian popularity (LFU-friendly)."""
    return ZipfianGenerator(n_keys, theta=theta, seed=seed).sample(n_requests)


def shifting_hotspot_trace(
    n_requests: int,
    n_keys: int,
    working_set: int = 512,
    dwell: int = 2000,
    shift: int = 128,
    inner_theta: float = 0.6,
    seed: int = 0,
) -> np.ndarray:
    """A drifting hot window (LRU-friendly).

    Every ``dwell`` requests the window of ``working_set`` keys advances by
    ``shift``; requests inside the window are mildly skewed.  The offsets
    inside the window are one draw; each dwell maps its share through its
    own permutation of the window, in place.
    """
    rng = np.random.default_rng(seed)
    inner = ZipfianGenerator(working_set, theta=inner_theta, seed=seed + 1)
    out = inner.sample(n_requests)
    for batch, start in enumerate(range(0, n_requests, dwell)):
        jitter = rng.permutation(working_set)
        offsets = out[start : start + dwell]
        offsets[:] = (batch * shift % n_keys + jitter[offsets]) % n_keys
    return out


def scan_polluted_trace(
    n_requests: int,
    n_keys: int,
    theta: float = 1.0,
    scan_every: int = 5000,
    scan_len: int = 1500,
    seed: int = 0,
) -> np.ndarray:
    """Zipfian traffic with periodic sequential scans (strongly LFU-friendly).

    Every ``scan_every`` Zipfian requests a scan of ``scan_len`` keys runs.
    Each Zipfian run is drawn straight into the output: the generator
    continues one stream across calls, so the runs hold the values of a
    single draw, and no trace-length temporary is made beside the output.
    """
    rng = np.random.default_rng(seed)
    zipf = ZipfianGenerator(n_keys, theta=theta, seed=seed + 1)
    out = np.empty(n_requests, dtype=np.int64)
    run_start = 0
    for scan, start in enumerate(
        range(scan_every, n_requests, scan_every + scan_len)
    ):
        out[run_start:start] = zipf.sample(start - run_start)
        length = min(scan_len, n_requests - start)
        first = int(rng.integers(0, n_keys))
        out[start : start + length] = (
            first + np.arange(length, dtype=np.int64) + scan * scan_len
        ) % n_keys
        run_start = start + length
    out[run_start:] = zipf.sample(n_requests - run_start)
    return out


def looping_trace(
    n_requests: int, loop_len: int, n_keys: Optional[int] = None, seed: int = 0
) -> np.ndarray:
    """Cyclic scan over ``loop_len`` keys (defeats LRU when loop > cache)."""
    del seed  # deterministic by construction; kept for a uniform signature
    n_keys = n_keys or loop_len
    idx = np.arange(n_requests, dtype=np.int64) % loop_len
    return idx % n_keys


def phase_switch_trace(
    n_requests: int,
    n_keys: int,
    phases: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Alternating LRU-/LFU-friendly phases (the Figure 19 workload).

    Each phase is generated and written into one preallocated output, so
    only one phase's trace is alive beside it.
    """
    per_phase = n_requests // phases
    out = np.empty(n_requests, dtype=np.int64)
    for p in range(phases):
        start = per_phase * p
        remaining = n_requests - start if p == phases - 1 else per_phase
        if p % 2 == 0:
            out[start : start + remaining] = shifting_hotspot_trace(
                remaining,
                n_keys,
                working_set=max(n_keys // 20, 16),
                dwell=max(remaining // 40, 200),
                shift=max(n_keys // 80, 8),
                seed=seed + p,
            )
        else:
            out[start : start + remaining] = scan_polluted_trace(
                remaining, n_keys, theta=1.05, seed=seed + p
            )
    return out


def webmail_like_trace(
    n_requests: int, n_keys: int, seed: int = 0
) -> np.ndarray:
    """FIU ``webmail`` stand-in: stable core + drifting set + rare scans.

    The mixture gives neither LRU nor LFU a uniform advantage, and the
    advantage flips with cache size and client interleaving — the properties
    §3.2 demonstrates on the real trace.

    Each access takes the core (55 %), the drifting set (35 %) or the scans
    (10 %).  The output starts as the scan trace and the drift and core
    traces are copied over it, each dropped once copied, so at most one
    component is alive beside the output.  Every component has its own
    seeded generator, so building them in this order changes no value.
    """
    choice = np.random.default_rng(seed).random(n_requests)
    use_drift = choice < 0.9
    use_core = choice < 0.55
    del choice
    out = scan_polluted_trace(
        n_requests, n_keys, theta=0.8, scan_every=8000, scan_len=2000, seed=seed + 3
    )
    np.copyto(
        out,
        shifting_hotspot_trace(
            n_requests,
            n_keys,
            working_set=max(n_keys // 16, 32),
            dwell=max(n_requests // 64, 100),
            shift=max(n_keys // 64, 8),
            seed=seed + 2,
        ),
        where=use_drift,
    )
    np.copyto(
        out,
        zipfian_trace(n_requests, n_keys, theta=1.02, seed=seed + 1),
        where=use_core,
    )
    return out


def footprint(trace: Sequence[int]) -> int:
    """Number of unique keys (the paper sizes caches relative to this).

    The trace is reduced to its sorted distinct keys one
    :data:`FOOTPRINT_CHUNK` at a time, so beside the trace only one chunk
    and the key set are ever held, never a sorted copy of the whole trace.
    """
    trace = np.asarray(trace)
    keys = np.unique(trace[:FOOTPRINT_CHUNK])
    for start in range(FOOTPRINT_CHUNK, len(trace), FOOTPRINT_CHUNK):
        chunk = np.unique(trace[start : start + FOOTPRINT_CHUNK])
        at = np.searchsorted(keys, chunk)
        known = at < len(keys)
        known[known] = keys[at[known]] == chunk[known]
        keys = np.insert(keys, at[~known], chunk[~known])
    return int(keys.size)


# ---------------------------------------------------------------------------
# Workload catalog (Table 2) and seeded corpora (Figures 5 and 18)
# ---------------------------------------------------------------------------


@dataclass
class TraceSpec:
    """A named synthetic workload standing in for one real trace."""

    name: str
    family: str  # paper dataset this mimics
    workload_type: str  # Table 2's "Workload Type" column
    generate: Callable[[int, int, int], np.ndarray] = field(repr=False)
    n_keys: int = 4096

    def trace(self, n_requests: int, seed: int = 0) -> np.ndarray:
        return self.generate(n_requests, self.n_keys, seed)


def _spec(name, family, wtype, fn, n_keys):
    return TraceSpec(name=name, family=family, workload_type=wtype, generate=fn, n_keys=n_keys)


#: The five representative workloads of Figures 16-17 plus YCSB's home.
WORKLOAD_CATALOG: Dict[str, TraceSpec] = {
    "webmail": _spec(
        "webmail", "FIU", "Block IO",
        lambda n, k, s: webmail_like_trace(n, k, seed=s), 4096,
    ),
    "ibm": _spec(
        "ibm", "IBM", "Object Store",
        lambda n, k, s: zipfian_trace(n, k, theta=1.05, seed=s), 8192,
    ),
    "cloudphysics": _spec(
        "cloudphysics", "CloudPhysics", "Block IO",
        lambda n, k, s: scan_polluted_trace(n, k, theta=0.95, seed=s), 8192,
    ),
    "twitter-transient": _spec(
        "twitter-transient", "Twitter", "Transient key-value cache",
        lambda n, k, s: shifting_hotspot_trace(
            n, k, working_set=max(k // 12, 64), dwell=1500, shift=max(k // 48, 16), seed=s
        ), 6144,
    ),
    "twitter-storage": _spec(
        "twitter-storage", "Twitter", "Storage key-value cache",
        lambda n, k, s: zipfian_trace(n, k, theta=0.9, seed=s), 8192,
    ),
    "twitter-compute": _spec(
        "twitter-compute", "Twitter", "Compute key-value cache",
        lambda n, k, s: phase_switch_trace(n, k, phases=4, seed=s), 6144,
    ),
}


def corpus(
    n_traces: int = 74, seed: int = 0, n_keys: int = 4096
) -> List[TraceSpec]:
    """A seeded population of workloads with mixed LRU/LFU affinities.

    Mimics the paper's 74-trace Twitter+FIU population (Fig. 5) or, with
    ``n_traces=33``, the IBM+CloudPhysics population of Figure 18.
    """
    rng = np.random.default_rng(seed)
    specs: List[TraceSpec] = []
    families = ("drift", "zipf", "scan", "mix", "phase")
    for i in range(n_traces):
        family = families[i % len(families)]
        keys = int(n_keys * rng.uniform(0.5, 2.0))
        if family == "drift":
            ws = max(int(keys * rng.uniform(0.03, 0.15)), 16)
            dwell = int(rng.uniform(500, 4000))
            shift = max(int(ws * rng.uniform(0.1, 0.5)), 4)
            fn = (
                lambda n, k, s, ws=ws, dwell=dwell, shift=shift: shifting_hotspot_trace(
                    n, k, working_set=ws, dwell=dwell, shift=shift, seed=s
                )
            )
            wtype = "Transient key-value cache"
        elif family == "zipf":
            theta = rng.uniform(0.8, 1.2)
            fn = lambda n, k, s, theta=theta: zipfian_trace(n, k, theta=theta, seed=s)
            wtype = "Storage key-value cache"
        elif family == "scan":
            theta = rng.uniform(0.8, 1.1)
            scan_every = int(rng.uniform(3000, 9000))
            scan_len = int(rng.uniform(500, 2500))
            fn = (
                lambda n, k, s, theta=theta, e=scan_every, l=scan_len: scan_polluted_trace(
                    n, k, theta=theta, scan_every=e, scan_len=l, seed=s
                )
            )
            wtype = "Block IO"
        elif family == "mix":
            fn = lambda n, k, s: webmail_like_trace(n, k, seed=s)
            wtype = "Block IO"
        else:
            phases = int(rng.integers(2, 6))
            fn = lambda n, k, s, p=phases: phase_switch_trace(n, k, phases=p, seed=s)
            wtype = "Compute key-value cache"
        specs.append(
            TraceSpec(
                name=f"{family}-{i:02d}",
                family=family,
                workload_type=wtype,
                generate=fn,
                n_keys=keys,
            )
        )
    return specs
