"""AdapTBF — adaptive token-borrowing bandwidth control (the paper's core).

The package mirrors the architecture of paper Fig. 2:

* :mod:`repro.core.allocation` — the three-step Token Allocation Algorithm
  (priority-based initial allocation, surplus redistribution, borrowed-token
  re-compensation; Eq. 1–20);
* :mod:`repro.core.remainders` — fractional-token remainder accounting with
  largest-remainder correction (Eq. 21–25);
* :mod:`repro.core.records` — the per-job lending/borrowing ledger;
* :mod:`repro.core.controller` — the System Stats Controller driving the
  observation loop;
* :mod:`repro.core.rule_daemon` — the Rule Management Daemon translating
  allocations into TBF rules, and the one rule reconciler every
  rule-managing mechanism writes through;
* :mod:`repro.core.baselines` — the paper's §IV-C comparison points
  (*No BW*, *Static BW*);
* :mod:`repro.core.ablation` — allocator variants that disable individual
  design elements, used by the ablation benches;
* :mod:`repro.core.mechanism` — the pluggable bandwidth-mechanism protocol
  and the :data:`MECHANISMS` registry every contender resolves through;
  its ``adaptbf`` mechanism installs one controller, algorithm and rule
  daemon per OST (decentralized: no cross-OST communication);
* :mod:`repro.core.pid` — the control-theoretic PID rate controller
  (a registered contender from outside the paper);
* :mod:`repro.core.sdn` — the centralized SDN controller with a modeled
  control plane (the decentralization-tax contrast);
* :mod:`repro.core.vc` — guaranteed-bandwidth virtual circuits with
  overbooked admission control.
"""

from repro.core.allocation import TokenAllocationAlgorithm
from repro.core.baselines import install_static_rules
from repro.core.controller import SystemStatsController
from repro.core.mechanism import (
    MECHANISMS,
    BandwidthMechanism,
    MechanismHandle,
    MechanismRegistry,
    PeriodicDriver,
)
from repro.core.pid import PidRateMechanism  # noqa: F401  (self-registers "pid")
from repro.core.records import JobRecords
from repro.core.sdn import SdnControllerMechanism  # noqa: F401  (self-registers "sdn")
from repro.core.remainders import RemainderStore
from repro.core.rule_daemon import RuleManagementDaemon
from repro.core.types import (
    AllocationGrants,
    AllocationInput,
    AllocationResult,
    AllocationRound,
    JobAllocation,
    JobInfo,
)
from repro.core.vc import VirtualCircuitMechanism  # noqa: F401  (self-registers "vc")

__all__ = [
    "BandwidthMechanism",
    "MECHANISMS",
    "MechanismHandle",
    "MechanismRegistry",
    "PeriodicDriver",
    "PidRateMechanism",
    "SdnControllerMechanism",
    "VirtualCircuitMechanism",
    "AllocationGrants",
    "AllocationInput",
    "AllocationResult",
    "AllocationRound",
    "JobAllocation",
    "JobInfo",
    "JobRecords",
    "RemainderStore",
    "RuleManagementDaemon",
    "SystemStatsController",
    "TokenAllocationAlgorithm",
    "install_static_rules",
]
