"""Deterministic discrete-event simulation substrate (time in microseconds)."""

from .. import _exports

_EXPORTS = {
    "Engine": ".engine",
    "Event": ".engine",
    "Process": ".engine",
    "SimulationError": ".engine",
    "ClientCrash": ".faults",
    "DropWindow": ".faults",
    "FaultInjector": ".faults",
    "FaultPlan": ".faults",
    "LatencySpike": ".faults",
    "NodeOutage": ".faults",
    "RpcFailure": ".faults",
    "Resource": ".resources",
    "CounterSet": ".stats",
    "LatencyStats": ".stats",
    "hit_rate": ".stats",
    "relative_change": ".stats",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _exports.lazy_exports(globals(), _EXPORTS)
