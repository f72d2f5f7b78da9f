"""Ditto's core: the client-centric caching framework and adaptive caching."""

from .. import _exports

_EXPORTS = {
    "ExpertWeights": ".adaptive",
    "GlobalWeights": ".adaptive",
    "bitmap_of": ".adaptive",
    "DittoCache": ".cache",
    "DittoCluster": ".cache",
    "CacheOperationError": ".client",
    "DittoClient": ".client",
    "DittoConfig": ".config",
    "EpochFence": ".elasticity",
    "MembershipTable": ".elasticity",
    "MetadataState": ".elasticity",
    "MigrationError": ".elasticity",
    "MigrationRecord": ".elasticity",
    "Migrator": ".elasticity",
    "StaleEpoch": ".elasticity",
    "FrequencyCounterCache": ".fc_cache",
    "InvariantViolation": ".invariants",
    "invariant_sweep": ".invariants:sweep",
    "HISTORY_WRAP": ".history",
    "history_age": ".history",
    "is_expired": ".history",
    "DittoLayout": ".layout",
    "Slot": ".layout",
    "stable_hash64": ".layout",
    "POLICY_REGISTRY": ".policies",
    "CachePolicy": ".policies",
    "Metadata": ".policies",
    "make_policy": ".policies",
    "policy_loc": ".policies",
    "backoff_us": ".retry",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _exports.lazy_exports(globals(), _EXPORTS)
