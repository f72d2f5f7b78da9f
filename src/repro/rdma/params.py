"""Timing parameters of the simulated RDMA fabric.

The numbers are calibrated against the paper's testbed (100 Gbps ConnectX-6,
~2 us small-message RTT) so that Ditto saturates at roughly 13 Mops with 256
clients, as in Figure 14.  Absolute values are configuration, not claims: all
experiments report shapes relative to baselines running on the same fabric.

Cost model per one-sided verb (client side):

    latency = RTT + NIC queueing + NIC service + payload / bandwidth

The NIC of a memory node is a serial message processor with a bounded message
rate; CAS and FAA consume more NIC service time than READ/WRITE to reflect the
internal atomics locks of real RNICs (Kalia et al., ATC'16) — the effect the
paper's FC cache exists to mitigate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class NetworkParams:
    """All knobs of the simulated fabric, in microseconds/bytes."""

    #: Base round-trip propagation + PCIe + client NIC time for small messages.
    rtt_us: float = 1.8
    #: Memory-node RNIC message rate in million messages/second.  Each verb
    #: occupies the NIC pipe for ``verb_cost / rate`` microseconds.
    nic_rate_mops: float = 80.0
    #: Network bandwidth in bytes per microsecond (100 Gbps ~ 12500 B/us).
    bandwidth_bytes_per_us: float = 12500.0
    #: Relative NIC service cost per verb (1.0 = one plain message).
    verb_costs: Dict[str, float] = field(
        default_factory=lambda: {
            "read": 1.0,
            "write": 1.0,
            "cas": 2.0,  # RNIC-internal atomics lock
            "faa": 2.0,
            "rpc": 2.0,  # send + completion
        }
    )
    #: Client-side CPU overhead charged per issued verb (posting, polling).
    client_overhead_us: float = 0.15
    #: Controller CPU time for trivial RPC dispatch (handler adds its own).
    rpc_dispatch_cpu_us: float = 0.3
    #: Completion timeout: how long a client waits for a verb whose response
    #: never arrives before declaring it failed.  Only reachable under fault
    #: injection — the healthy fabric always completes verbs.
    verb_timeout_us: float = 100.0

    def nic_service_us(self, verb: str, payload_bytes: int = 0) -> float:
        """NIC pipe occupancy for one verb of ``payload_bytes``."""
        base = self.verb_costs[verb] / self.nic_rate_mops
        return base + payload_bytes / self.bandwidth_bytes_per_us

    def one_way_us(self) -> float:
        return self.rtt_us / 2.0


DEFAULT_PARAMS = NetworkParams()
