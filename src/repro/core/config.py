"""Configuration of a Ditto deployment (paper §5.1 "Parameters")."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass
class DittoConfig:
    """Tunables of the client-centric framework and adaptive caching.

    Defaults follow the paper: 5 eviction samples (Redis default), a 10 MB
    FC cache, learning rate 0.1, global weight sync every 100 local
    regrets, history size equal to the cache size in objects.  The FC
    cache's flush threshold t = 10 is not a field: it is
    :data:`~repro.core.fc_cache.FC_THRESHOLD`, and ``use_fc=False`` turns
    combining off.  Values that would silently switch a mechanism off
    (a negative history, budget or rate, no retry) are rejected.
    """

    #: Caching algorithms run as adaptive experts.
    policies: Tuple[str, ...] = ("lru", "lfu")
    #: Objects sampled per eviction.
    sample_size: int = 5
    #: Eviction-history length in entries; 0 means "equal to capacity".
    history_size: int = 0
    #: FC cache size in bytes.
    fc_capacity_bytes: int = 10 * 1024 * 1024
    #: Regret-minimization learning rate λ.
    learning_rate: float = 0.1
    #: Local regrets buffered before a lazy global weight update RPC.
    weight_update_batch: int = 100
    #: Retry cap for CAS races and empty samples before an operation fails.
    max_retries: int = 16

    # -- fault tolerance (only exercised under fault injection) ------------
    #: Extra attempts when a verb times out or an RPC is lost.
    fault_retries: int = 3
    #: Base backoff before a fault retry; doubles per attempt (0 disables).
    retry_backoff_us: float = 20.0
    #: Backoff ceiling for the exponential fault-retry schedule.
    retry_backoff_max_us: float = 2_000.0
    #: Budget (us on the substrate's clock) for one operation, checked after
    #: every failed attempt: a Set/Delete past it raises, a Get degrades to
    #: a miss; 0 disables.
    op_deadline_us: float = 0.0
    #: Membership refreshes allowed per operation when verbs come back
    #: ``StaleEpoch`` (epoch-fenced elasticity); exhausting the budget turns
    #: a Get into a miss and fails a Set/Delete like other fault retries.
    epoch_retries: int = 8

    # -- ablation switches (Figure 24) ------------------------------------
    #: Sample-friendly hash table: metadata in slots, 1-READ sampling.
    use_sfht: bool = True
    #: Lightweight (embedded) eviction history vs. a remote FIFO queue.
    use_lwh: bool = True
    #: Lazy (batched, compressed) weight updates vs. per-regret RPCs.
    use_lwu: bool = True
    #: Frequency-counter cache vs. one FAA per access.
    use_fc: bool = True

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("need at least one policy")
        for name in ("sample_size", "max_retries", "weight_update_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in (
            "fault_retries",
            "epoch_retries",
            "history_size",
            "fc_capacity_bytes",
            "learning_rate",
            "retry_backoff_us",
            "retry_backoff_max_us",
            "op_deadline_us",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def num_experts(self) -> int:
        return len(self.policies)

    @property
    def adaptive(self) -> bool:
        """Adaptive caching at all: False with a single fixed policy."""
        return self.num_experts > 1
