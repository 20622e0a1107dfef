"""AdapTBF reproduction: decentralized bandwidth control for HPC storage.

A faithful, fully-simulated reproduction of *AdapTBF: Decentralized
Bandwidth Control via Adaptive Token Borrowing for HPC Storage* (Rashid &
Dai, IPPS 2025).  The package layers:

* :mod:`repro.sim` — a deterministic discrete-event engine;
* :mod:`repro.lustre` — the Lustre data path AdapTBF plugs into (NRS with
  FIFO/TBF policies, OSS thread pool, processor-sharing OSTs, job stats);
* :mod:`repro.core` — the AdapTBF framework itself (three-step token
  allocation with lending/borrowing records, remainder fairness, controller
  and rule daemon) plus the paper's baselines, ablations and the pluggable
  bandwidth-mechanism protocol/registry (``MECHANISMS``) every contender —
  including the EWMA-prediction and PID additions — resolves through;
* :mod:`repro.workloads` — Filebench-style synthetic workload patterns,
  their registry and trace replay;
* :mod:`repro.scenarios` — the declarative pipeline: frozen ``ScenarioSpec``
  family, the named scenario registry (the three §IV scenarios plus new job
  mixes such as burst storms and elastic churn), and the
  ``run_scenario(spec)`` entry point everything executes through;
* :mod:`repro.cluster` — spec materialization (``build(spec)``) and the
  experiment executor;
* :mod:`repro.metrics` — timelines, summaries and text rendering;
* :mod:`repro.experiments` — figure adapters and the unified CLI
  (``python -m repro.experiments run <scenario>``).

Quickstart
----------
>>> from repro.scenarios import REGISTRY, run_scenario
>>> result = run_scenario(REGISTRY.build("quickstart", file_mib=16.0))
>>> result.summary.aggregate_mib_s > 0
True

``repro.run_scenario`` is the one entry point that takes a
``ScenarioSpec`` and returns its measurements; it is
``repro.cluster.execute(repro.cluster.build(spec))`` with the spec
attached.  A built cluster's ``handles`` expose each OST's mechanism.
"""

from repro.cluster import ExperimentResult
from repro.core import MECHANISMS, BandwidthMechanism, TokenAllocationAlgorithm
from repro.scenarios import (
    REGISTRY,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    TopologySpec,
    run_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "BandwidthMechanism",
    "MECHANISMS",
    "REGISTRY",
    "PolicySpec",
    "RunSpec",
    "ScenarioSpec",
    "TopologySpec",
    "ExperimentResult",
    "TokenAllocationAlgorithm",
    "run_scenario",
    "__version__",
]
