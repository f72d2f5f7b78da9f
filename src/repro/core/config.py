"""Configuration of a Ditto deployment (paper §5.1 "Parameters")."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass
class DittoConfig:
    """Tunables of the client-centric framework and adaptive caching.

    Defaults follow the paper: 5 eviction samples (Redis default), FC cache
    threshold 10 with a 10 MB budget, learning rate 0.1, global weight sync
    every 100 local regrets, history size equal to the cache size in objects.
    """

    #: Caching algorithms run as adaptive experts.
    policies: Tuple[str, ...] = ("lru", "lfu")
    #: Objects sampled per eviction.
    sample_size: int = 5
    #: Eviction-history length in entries; 0 means "equal to capacity".
    history_size: int = 0
    #: FC cache flush threshold t (1 disables combining).
    fc_threshold: int = 10
    #: FC cache size in bytes.
    fc_capacity_bytes: int = 10 * 1024 * 1024
    #: Regret-minimization learning rate λ.
    learning_rate: float = 0.1
    #: Local regrets buffered before a lazy global weight update RPC.
    weight_update_batch: int = 100
    #: Retry cap for CAS races and empty samples before an operation fails.
    max_retries: int = 16
    #: Hash-table slots allocated per cached object (object + history + slack).
    slot_factor: float = 4.0

    # -- fault tolerance (only exercised under fault injection) ------------
    #: Extra attempts when a verb times out or an RPC is lost.
    fault_retries: int = 3
    #: Base backoff before a fault retry; doubles per attempt (0 disables).
    retry_backoff_us: float = 20.0
    #: Backoff ceiling for the exponential fault-retry schedule.
    retry_backoff_max_us: float = 2_000.0
    #: Jitter fraction: each backoff is stretched by up to this much, drawn
    #: from the client's deterministic RNG (decorrelates retry storms).
    retry_jitter: float = 0.5
    #: Budget (us on the substrate's clock) for one operation, checked after
    #: every failed attempt: a Set/Delete past it raises, a Get degrades to
    #: a miss; 0 disables.
    op_deadline_us: float = 0.0
    #: Lease age after which a half-installed slot (its metadata write was
    #: lost) may be reclaimed by any reader.
    repair_lease_us: float = 1_000.0
    #: Delay between a client crash and a survivor starting recovery (models
    #: liveness-lease expiry at the quota/metadata service).
    crash_detect_us: float = 500.0
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
    #: Adaptive caching at all (False = single fixed policy).
    adaptive: bool = True

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("need at least one policy")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.fault_retries < 0:
            raise ValueError("fault_retries must be >= 0")
        if self.epoch_retries < 0:
            raise ValueError("epoch_retries must be >= 0")
        for name in (
            "retry_backoff_us",
            "retry_backoff_max_us",
            "retry_jitter",
            "op_deadline_us",
            "repair_lease_us",
            "crash_detect_us",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if len(self.policies) == 1:
            self.adaptive = False
        if not self.use_fc:
            self.fc_threshold = 1

    @property
    def num_experts(self) -> int:
        return len(self.policies)
