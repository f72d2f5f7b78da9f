"""Shared exponential-backoff-with-jitter schedule.

Every retry loop in the system — client fault retries, migration steps
and crash-recovery RPCs — pauses on the same schedule:
``base * 2**(attempt-1)``, clamped to a ceiling, stretched by up to
``jitter`` drawn from the caller's deterministic RNG.  Keeping the
formula (and, critically, the RNG draw discipline: exactly one draw per
jittered delay, none otherwise) in one place is what keeps seeded runs
byte-identical across refactors of the callers.
"""

from __future__ import annotations

import random
from typing import Optional


def backoff_us(
    attempt: int,
    *,
    base: float,
    ceiling: float = 0.0,
    jitter: float = 0.0,
    rng: Optional[random.Random] = None,
) -> float:
    """Delay in microseconds (simulated, or wall-clock on the real
    substrate) before retry ``attempt`` (1-based).

    ``base <= 0`` disables backoff (returns 0.0 with no RNG draw).
    ``ceiling`` caps the exponential growth when positive.  ``jitter > 0``
    stretches the delay by ``1 + jitter * rng.random()`` — one draw from
    ``rng``, which must then be provided.
    """
    if base <= 0.0:
        return 0.0
    delay = base * (2 ** (attempt - 1))
    if ceiling > 0.0 and delay > ceiling:
        delay = ceiling
    if jitter > 0.0:
        if rng is None:
            raise ValueError("jitter requires an rng")
        delay *= 1.0 + jitter * rng.random()
    return delay


__all__ = ["backoff_us"]
