"""YCSB core workloads A-D (Cooper et al., SoCC'10) as request streams.

A stream is two arrays (:meth:`YCSBWorkload.arrays`): int8 op codes
(:data:`READ`, :data:`UPDATE`, :data:`INSERT`) and int64 key ids, built
whole from one draw per array.  :meth:`YCSBWorkload.requests` is the same
stream as ``(op name, key_id)`` tuples.  The paper's setup: 10 million
pre-loaded 256-byte key-value pairs, Zipfian with θ = 0.99.  Workload D
inserts new keys and reads with the "latest" distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .zipf import LatestGenerator, ZipfianGenerator

#: Op codes of a request stream; ``OP_NAMES[code]`` is the code's name.
READ, UPDATE, INSERT = 0, 1, 2
OP_NAMES = ("read", "update", "insert")

Request = Tuple[str, int]

#: (read fraction, update fraction, insert fraction) per core workload.
YCSB_MIXES = {
    "A": (0.50, 0.50, 0.0),
    "B": (0.95, 0.05, 0.0),
    "C": (1.00, 0.00, 0.0),
    "D": (0.95, 0.00, 0.05),
}


@dataclass
class YCSBConfig:
    workload: str = "C"
    n_keys: int = 10_000_000
    theta: float = 0.99
    value_bytes: int = 256
    seed: int = 0
    #: Workload D only: this generator's inserts land in a private key range
    #: (``n_keys + client_id * insert_space + i``), mirroring YCSB's
    #: globally-unique new record IDs when many clients insert concurrently.
    client_id: int = 0
    insert_space: int = 1 << 20

    def __post_init__(self) -> None:
        self.workload = self.workload.upper()
        if self.workload not in YCSB_MIXES:
            raise ValueError(f"unknown YCSB workload {self.workload!r}")


class YCSBWorkload:
    """Generates load keys and request streams for one core workload."""

    def __init__(self, config: YCSBConfig):
        self.config = config
        mix = YCSB_MIXES[config.workload]
        self._read_frac, self._update_frac, self._insert_frac = mix
        self._zipf = ZipfianGenerator(
            config.n_keys, theta=config.theta, seed=config.seed
        )
        self._latest = (
            LatestGenerator(
                config.n_keys, theta=config.theta, seed=config.seed + 1
            )
            if config.workload == "D" else None
        )
        self._rng = np.random.default_rng(config.seed + 2)
        self._newest = config.n_keys - 1  # logical key space: base + own inserts

    def arrays(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next ``count`` requests: int8 op codes and int64 key ids."""
        draws = self._rng.random(count)
        if self.config.workload == "D":
            return self._latest_arrays(draws < self._insert_frac)
        ops = np.where(draws < self._read_frac, READ, UPDATE).astype(np.int8)
        return ops, self._zipf.sample(count)

    def requests(self, count: int) -> List[Request]:
        """The next ``count`` requests as ``(op name, key_id)`` tuples."""
        ops, keys = self.arrays(count)
        return list(zip(np.array(OP_NAMES)[ops].tolist(), keys.tolist()))

    def _latest_arrays(self, inserts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Workload D: an insert adds the next key of this client's own
        range, and a read draws from the "latest" distribution as of its
        place in the stream — one offset draw for all the reads.

        Logical keys past the base ``n_keys`` are this client's inserts;
        they map into its private physical range."""
        newest = self._newest + np.cumsum(inserts)
        if len(newest):
            self._newest = int(newest[-1])
        reads = ~inserts
        logical = newest.copy()
        logical[reads] = self._latest.sample(int(reads.sum()), newest[reads])
        config = self.config
        physical = np.where(
            logical < config.n_keys,
            logical,
            logical + config.client_id * config.insert_space,
        )
        return np.where(inserts, INSERT, READ).astype(np.int8), physical


def make_ycsb(workload: str, n_keys: int = 100_000, seed: int = 0, **kwargs) -> YCSBWorkload:
    """Convenience constructor: ``make_ycsb("C", n_keys=1_000_000)``."""
    return YCSBWorkload(YCSBConfig(workload=workload, n_keys=n_keys, seed=seed, **kwargs))
