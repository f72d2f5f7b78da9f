"""Zipfian key sampling (the YCSB request distribution).

YCSB draws keys from a Zipfian distribution with exponent θ = 0.99 and
*scrambles* ranks so popular keys are spread over the key space.  We
precompute the CDF with numpy and sample with ``searchsorted``, which is fast
and exact for the bounded key counts used here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


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
        ranks = np.arange(1, n_keys + 1, dtype=np.float64)
        weights = ranks ** -theta
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        if scramble:
            self._permutation: Optional[np.ndarray] = self.rng.permutation(n_keys)
        else:
            self._permutation = None

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` keys (numpy int64 array)."""
        u = self.rng.random(count)
        ranks = np.searchsorted(self._cdf, u, side="right")
        if self._permutation is not None:
            return self._permutation[ranks]
        return ranks.astype(np.int64)

    def sample_one(self) -> int:
        return int(self.sample(1)[0])


class UniformGenerator:
    """Uniform key sampling over [0, n_keys)."""

    def __init__(self, n_keys: int, seed: int = 0):
        if n_keys < 1:
            raise ValueError("need at least one key")
        self.n_keys = n_keys
        self.rng = np.random.default_rng(seed)

    def sample(self, count: int) -> np.ndarray:
        return self.rng.integers(0, self.n_keys, size=count, dtype=np.int64)

    def sample_one(self) -> int:
        return int(self.sample(1)[0])


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
