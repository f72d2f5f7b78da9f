"""Modelling concurrency effects on access patterns (paper §3.2).

Two mechanisms change what the cache *sees* when compute resources change:

1. Several applications with different patterns share the cache; the overall
   mixture shifts with each application's client count
   (:func:`mix_traces` — Figures 3 and 20).
2. One application's trace is sharded across its client threads and their
   executions interleave, perturbing the original ordering
   (:func:`shard_trace` + :func:`interleave_shards`, or
   :func:`concurrent_view` — Figures 5 and 21).

Both build whole arrays, with no per-request loop: the order in which
sources take turns is drawn (or, for ``round_robin``, fixed) first, and a
stable sort of the turns scatters each source's keys to its turns in one
step.  The random interleave's turns come from bulk draws that reproduce
the per-step ``rng.integers`` sequence exactly (see
:func:`_random_turns`), so every stream is the one the loops drew.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def offset_keys(trace: np.ndarray, offset: int) -> np.ndarray:
    """Shift a trace into a disjoint key range (for multi-app mixes)."""
    return np.asarray(trace, dtype=np.int64) + offset


def mix_traces(
    traces: Sequence[np.ndarray],
    weights: Sequence[float],
    n_requests: int,
    seed: int = 0,
) -> np.ndarray:
    """Merge traces by drawing the next source i.i.d. with ``weights``.

    Each source's internal order is preserved (it models an application
    replaying its own request stream); a source that runs dry is recycled
    from its start.  Weights are proportional to the applications' client
    counts in the paper's compute-scaling experiments.  The picks are one
    draw; a source picked ``c`` times gives its first ``c`` keys, cycling.
    """
    if len(traces) != len(weights):
        raise ValueError("traces and weights must align")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    probs = np.asarray(weights, dtype=np.float64) / total
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(traces), size=n_requests, p=probs)
    counts = np.bincount(picks, minlength=len(traces))
    sources = [np.asarray(t, dtype=np.int64) for t in traces]
    return _gather(
        picks, [src[np.arange(n) % len(src)] for src, n in zip(sources, counts)]
    )


def shard_trace(trace: np.ndarray, n_shards: int) -> List[np.ndarray]:
    """Split a trace into contiguous per-client shards (the paper's loading
    scheme: clients replay disjoint trace portions)."""
    if n_shards < 1:
        raise ValueError("need at least one shard")
    return [np.asarray(s, dtype=np.int64) for s in np.array_split(trace, n_shards)]


def interleave_shards(
    shards: Sequence[np.ndarray], mode: str = "round_robin", seed: int = 0
) -> np.ndarray:
    """Merge per-client shards into the stream the shared cache observes.

    ``round_robin`` models lock-step clients; ``random`` models free-running
    clients (each step, a uniformly random client issues its next request).
    """
    sources = [np.asarray(s, dtype=np.int64) for s in shards if len(s)]
    if not sources:
        return np.empty(0, dtype=np.int64)
    if mode == "round_robin":
        # Request r of every shard comes before request r + 1 of any.
        rounds = np.concatenate([np.arange(len(s)) for s in sources])
        return np.concatenate(sources)[np.argsort(rounds, kind="stable")]
    if mode == "random":
        return _gather(_random_turns(sources, seed), sources)
    raise ValueError(f"unknown interleave mode {mode!r}")


def _random_turns(sources: List[np.ndarray], seed: int) -> np.ndarray:
    """Which source issues each request: every step draws
    ``rng.integers(0, len(live))`` over the sources not yet exhausted.

    ``integers(0, k, size=m)`` yields the values of ``m`` scalar draws and
    leaves the generator where they would, so the picks between two
    exhaustions are one call.  Draw a chunk, find where the first source
    runs dry, then rewind and redraw exactly that many; the dry source
    leaves ``live`` in place, as the scalar loop's ``list.remove`` did.
    """
    rng = np.random.default_rng(seed)
    bits = rng.bit_generator
    left = np.array([len(s) for s in sources])
    live = np.arange(len(sources))
    turns = np.empty(int(left.sum()), dtype=np.intp)
    done = 0
    while len(live):
        need = left[live]
        # The first exhaustion rarely comes later than the smallest
        # source's expected finish; a chunk that ends first just loops.
        chunk = min(len(turns) - done, 2 * len(live) * int(need.min()))
        saved = bits.state
        picks = rng.integers(0, len(live), size=chunk)
        order = np.argsort(picks.astype(np.min_scalar_type(len(live))),
                           kind="stable")
        counts = np.bincount(picks, minlength=len(live))
        dry = np.flatnonzero(counts >= need)
        if len(dry):
            starts = np.cumsum(counts) - counts
            chunk = int(order[starts[dry] + need[dry] - 1].min()) + 1
            bits.state = saved
            picks = rng.integers(0, len(live), size=chunk)
            counts = np.bincount(picks, minlength=len(live))
        turns[done:done + chunk] = live[picks]
        done += chunk
        left[live] -= counts
        live = live[left[live] > 0]
    return turns


def _gather(turns: np.ndarray, streams: Sequence[np.ndarray]) -> np.ndarray:
    """``out[i]`` is the next unread key of ``streams[turns[i]]``: a stable
    sort of ``turns`` lists each stream's turns in order, so the
    concatenated streams scatter straight to them."""
    out = np.empty(len(turns), dtype=np.int64)
    order = np.argsort(turns.astype(np.min_scalar_type(len(streams))),
                       kind="stable")
    out[order] = np.concatenate(streams)
    return out


def concurrent_view(trace: np.ndarray, n_clients: int, mode: str = "random", seed: int = 0) -> np.ndarray:
    """Shard a trace over ``n_clients`` and interleave: what the cache sees
    when the application scales to ``n_clients`` threads."""
    if n_clients <= 1:
        return np.asarray(trace, dtype=np.int64)
    return interleave_shards(shard_trace(trace, n_clients), mode=mode, seed=seed)
