"""Fast hit-rate simulators sharing policy semantics with the DM client."""

from .exact import (
    ExactCacheBase,
    ExactLFUCache,
    ExactLRUCache,
    RandomCache,
)
from .simulator import SampledAdaptiveCache

__all__ = [
    "ExactCacheBase",
    "ExactLFUCache",
    "ExactLRUCache",
    "RandomCache",
    "SampledAdaptiveCache",
]
