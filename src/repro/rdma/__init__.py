"""Simulated one-sided RDMA fabric (verbs, NIC model, timing parameters)."""

from .. import _exports

_EXPORTS = {
    "DEFAULT_PARAMS": ".params",
    "NetworkParams": ".params",
    "NodeUnavailable": ".verbs",
    "RdmaEndpoint": ".verbs",
    "RdmaFaultError": ".verbs",
    "StaleEpoch": ".verbs",
    "VerbTimeout": ".verbs",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _exports.lazy_exports(globals(), _EXPORTS)
