"""Zipfian key sampling (the YCSB request distribution).

YCSB draws keys from a Zipfian distribution with exponent θ = 0.99 and
*scrambles* ranks so popular keys are spread over the key space.  We
precompute the CDF with numpy; a uniform draw ``u`` in [0, 1) maps to the
rank ``searchsorted(cdf, u, side="right")``, the number of CDF entries
``<= u``.

A guide table finds that rank without a binary search over the whole CDF,
and finds exactly it.  The table has ``M + 1`` entries, ``M`` a power of two
(about four per key, capped at ``_GUIDE_MAX``), and entry ``b`` is
``searchsorted(cdf, b / M, side="right")``.  Because ``M`` is a power of
two, ``u * M`` and ``b / M`` are exact in floating point, so ``b =
floor(u * M)`` gives ``b / M <= u < (b + 1) / M`` with no rounding case.
The count of entries ``<= x`` only grows with ``x``, so the rank lies in
``[guide[b], guide[b + 1]]``.  A vectorised bisection then narrows that
range, comparing ``cdf[mid] <= u`` as ``searchsorted`` does, for as many
passes as the widest bucket needs.  A pass past convergence changes
nothing: the rank's own entry is ``> u`` (``cdf[-1]`` is exactly 1.0).  So
every rank, and every key, is the one the full binary search returns, and
the table is built once per generator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Largest guide table (4 MB of int32 entries): a 10 M-key YCSB space
#: would otherwise want 2^26.  A capped table only costs more passes.
_GUIDE_MAX = 1 << 20
#: Draws made and refined, and CDF edges counted, per block, so the
#: temporaries stay small.
_BLOCK = 1 << 16


class ZipfianGenerator:
    """Samples integers in [0, n_keys) with Zipfian popularity."""

    def __init__(
        self,
        n_keys: int,
        theta: float = 0.99,
        seed: int = 0,
        scramble: bool = True,
    ):
        if n_keys < 1:
            raise ValueError("need at least one key")
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.n_keys = n_keys
        self.theta = theta
        self.rng = np.random.default_rng(seed)
        self._cdf = np.cumsum(
            np.arange(1, n_keys + 1, dtype=np.float64) ** -theta
        )
        self._cdf /= self._cdf[-1]
        size = min(1 << (4 * n_keys - 1).bit_length(), _GUIDE_MAX)
        self._scale = float(size)
        # c <= b / M exactly when ceil(c * M) <= b (c * M is exact): count
        # each CDF entry at its ceiling and sum, O(n + M) for all entries.
        # The edges are sorted, so a run of equal edges ends where the next
        # one differs, and its length is that edge's count.  The counts go
        # straight into the int32 table, a block of edges at a time (a run
        # split across blocks is counted in each), and are summed in place.
        edges = np.ceil(self._cdf * self._scale).astype(np.intp)
        self._guide = np.zeros(size + 1, dtype=np.int32)
        for start in range(0, n_keys, _BLOCK):
            block = edges[start:start + _BLOCK]
            ends = np.append(
                np.flatnonzero(block[1:] != block[:-1]), len(block) - 1
            )
            self._guide[block[ends]] += np.diff(ends, prepend=-1)
        np.cumsum(self._guide, out=self._guide)
        self._passes = int(np.diff(self._guide).max()).bit_length()
        if scramble:
            self._permutation: Optional[np.ndarray] = self.rng.permutation(n_keys)
        else:
            self._permutation = None

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` keys (numpy int64 array), one block of uniforms
        at a time: consecutive ``random`` calls continue one stream, so the
        draws are those of a single ``random(count)``."""
        keys = np.empty(count, dtype=np.int64)
        for start in range(0, count, _BLOCK):
            ranks = self._ranks(self.rng.random(min(_BLOCK, count - start)))
            if self._permutation is not None:
                ranks = self._permutation[ranks]
            keys[start:start + len(ranks)] = ranks
        return keys

    def _ranks(self, u: np.ndarray) -> np.ndarray:
        """``searchsorted(cdf, u, side="right")`` through the guide table."""
        bucket = (u * self._scale).astype(np.intp)
        lo = self._guide[bucket]
        hi = self._guide[bucket + 1]
        wide = np.flatnonzero(lo != hi)
        low, high, x = lo[wide], hi[wide], u[wide]
        for _ in range(self._passes):
            mid = (low + high) >> 1
            right = self._cdf[mid] <= x
            low = np.where(right, mid + 1, low)
            high = np.where(right, high, mid)
        lo[wide] = low
        return lo


class UniformGenerator:
    """Uniform key sampling over [0, n_keys)."""

    def __init__(self, n_keys: int, seed: int = 0):
        if n_keys < 1:
            raise ValueError("need at least one key")
        self.n_keys = n_keys
        self.rng = np.random.default_rng(seed)

    def sample(self, count: int) -> np.ndarray:
        return self.rng.integers(0, self.n_keys, size=count, dtype=np.int64)


class LatestGenerator:
    """YCSB's "latest" distribution: recency-skewed toward newest inserts.

    Used by workload D: the sampled key is ``newest - zipf_offset``, where
    ``newest`` is one key or one per sample.
    """

    def __init__(self, n_keys: int, theta: float = 0.99, seed: int = 0):
        self.n_keys = n_keys
        self._zipf = ZipfianGenerator(n_keys, theta=theta, seed=seed, scramble=False)

    def sample(self, count: int, newest) -> np.ndarray:
        offsets = self._zipf.sample(count)
        return (newest - offsets) % np.maximum(newest + 1, 1)
