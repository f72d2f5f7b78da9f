"""Distributed adaptive caching: regret minimization over expert policies
(paper §4.3.2).

Each client keeps a *local* copy of the expert weights and uses it for every
eviction decision.  When a regret is found (a missed key hits the eviction
history), the client penalizes the experts named in the history entry's
bitmap.  Penalties are discounted by the entry's age ``t`` in the logical
FIFO queue: ``penalty = d ** t`` with ``d = 0.005 ** (1 / history_size)``
(LeCaR's discount), and a penalized expert's weight is multiplied by
``exp(-learning_rate * penalty)``.

Because penalties compose multiplicatively through the exponential, a client
can *compress* a batch of regrets into one per-expert penalty **sum** — the
lazy weight update: after ``batch_size`` local regrets, the sums travel to the
memory-node controller in a single RPC, the controller folds them into the
global weights, and the reply resynchronizes the client's local copy.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

#: Weights never decay below this floor, so a long losing streak cannot
#: permanently disable an expert (it must be able to win again after a
#: workload change).
WEIGHT_FLOOR = 1e-4


def _normalized(weights: Sequence[float]) -> List[float]:
    clipped = [max(w, WEIGHT_FLOOR) for w in weights]
    total = sum(clipped)
    return [w / total for w in clipped]


class ExpertWeights:
    """Client-local expert weights with a compressed penalty buffer."""

    def __init__(
        self,
        num_experts: int,
        history_size: int,
        learning_rate: float = 0.1,
        batch_size: int = 100,
        rng: random.Random = None,
    ):
        if num_experts < 1:
            raise ValueError("need at least one expert")
        self.num_experts = num_experts
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.discount = 0.005 ** (1.0 / max(history_size, 1))
        self.weights = [1.0 / num_experts] * num_experts
        self._pending = [0.0] * num_experts
        self._pending_count = 0
        self._rng = rng or random.Random(0)

    def choose(self) -> int:
        """Pick the expert whose candidate gets evicted: the paper's
        weight-proportional choice, so a higher-weight expert's candidate
        is more likely to go."""
        if self.num_experts == 1:
            return 0
        x =self._rng.random() * sum(self.weights)
        acc = 0.0
        for i, w in enumerate(self.weights):
            acc += w
            if x < acc:
                return i
        return self.num_experts - 1

    def apply_regret(self, expert_bitmap: int, age: int) -> bool:
        """Penalize the experts in ``expert_bitmap`` for a regret of ``age``.

        Returns True once the penalty buffer is full and should be flushed to
        the controller with :meth:`take_pending`.
        """
        penalty = self.discount ** age
        for i in range(self.num_experts):
            if expert_bitmap & (1 << i):
                self.weights[i] *= math.exp(-self.learning_rate * penalty)
                self._pending[i] += penalty
        self.weights = _normalized(self.weights)
        self._pending_count += 1
        return self._pending_count >= self.batch_size

    def take_pending(self) -> List[float]:
        """Drain the compressed penalty sums for the lazy-update RPC."""
        pending, self._pending = self._pending, [0.0] * self.num_experts
        self._pending_count = 0
        return pending

    @property
    def pending_count(self) -> int:
        return self._pending_count

    def set_weights(self, weights: Sequence[float]) -> None:
        """Adopt the global weights returned by the controller."""
        if len(weights) != self.num_experts:
            raise ValueError("weight vector length mismatch")
        self.weights = _normalized(weights)


class GlobalWeights:
    """Controller-side global expert weights (one per memory pool)."""

    def __init__(self, num_experts: int, learning_rate: float = 0.1,
                 on_update=None):
        self.num_experts = num_experts
        self.learning_rate = learning_rate
        self.weights = [1.0 / num_experts] * num_experts
        #: Observability hook ``on_update(weights)``, called after each fold;
        #: None (the default) keeps updates hook-free.
        self.on_update = on_update

    def handle_update(self, penalty_sums: Sequence[float]) -> List[float]:
        """RPC handler: fold a client's penalty sums in, return new globals."""
        if len(penalty_sums) != self.num_experts:
            raise ValueError("penalty vector length mismatch")
        for i, penalty in enumerate(penalty_sums):
            if penalty:
                self.weights[i] *= math.exp(-self.learning_rate * penalty)
        self.weights = _normalized(self.weights)
        if self.on_update is not None:
            self.on_update(self.weights)
        return list(self.weights)


def bitmap_of(candidates: Sequence[int], victim_index: int) -> int:
    """Expert bitmap: which experts picked ``victim_index`` as their candidate."""
    bitmap = 0
    for expert, candidate in enumerate(candidates):
        if candidate == victim_index:
            bitmap |= 1 << expert
    return bitmap
