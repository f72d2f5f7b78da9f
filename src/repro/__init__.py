"""repro — a reproduction of Ditto, the elastic and adaptive
memory-disaggregated caching system (SOSP 2023).

Public API highlights:

- :class:`repro.DittoCache` — synchronous cache over simulated disaggregated
  memory (the paper's system, usable as a library).
- :class:`repro.DittoCluster` — the full deployment for timed experiments.
- :mod:`repro.cachesim` — fast hit-rate simulator sharing the same policies.
- :mod:`repro.workloads` — YCSB and synthetic real-world-like trace
  generators.
- :mod:`repro.baselines` — Redis-like, CliqueMap, and Shard-LRU comparators.
- :mod:`repro.bench` — the experiment harness regenerating every paper
  figure/table.
"""

from . import _exports

__version__ = "1.0.0"

_EXPORTS = {
    "CacheOperationError": ".core.client",
    "CachePolicy": ".core.policies",
    "DittoCache": ".core.cache",
    "DittoCluster": ".core.cache",
    "DittoConfig": ".core.config",
    "Metadata": ".core.policies",
    "NetworkParams": ".rdma.params",
    "POLICY_REGISTRY": ".core.policies",
    "make_policy": ".core.policies",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = _exports.lazy_exports(globals(), _EXPORTS)
