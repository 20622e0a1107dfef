"""Cluster construction: materialize a :class:`ScenarioSpec` into hardware.

:func:`build` assembles the simulated counterpart of the paper's CloudLab
testbed (Table II) from a declarative spec: OSS nodes fronting OSTs
(uniform or heterogeneous link rates), client processes grouped into jobs,
and whichever bandwidth-control mechanism the policy names.  Mechanisms are
resolved through :data:`repro.core.mechanism.MECHANISMS` — the builder has
no per-mechanism code; it asks the resolved
:class:`~repro.core.mechanism.BandwidthMechanism` for each OSS's NRS policy
and then installs the mechanism once per (OSS, OST) pair, so registering a
new mechanism makes it buildable everywhere with no builder edits.  The
workload axis is equally opaque here: each process's
:class:`~repro.workloads.patterns.Pattern` arrives fully resolved in the
spec (scenario-native or rebuilt via
:meth:`~repro.scenarios.spec.ScenarioSpec.with_workload`), and the builder
just hands its ``program`` to a :class:`ClientProcess` — read, write,
stochastic or trace-driven alike.

Simulator defaults stand in for the paper's hardware: the c6525-25g OSS has
two 480 GB SATA SSDs (~500 MiB/s each) and a 25 GbE NIC, so the OST-bandwidth
bottleneck sits around 1 GiB/s; ``capacity_mib_s`` defaults to 1024.  Tokens
follow the paper's convention (1 token = 1 RPC = 1 MiB payload), making an
OST's maximum token rate ``T_i = capacity / rpc_size``.

:func:`build` is the only way a run is assembled: configure it with a
:class:`ScenarioSpec`, run the result with
:func:`~repro.cluster.experiment.execute`, and inspect each OST's
mechanism through :attr:`ClusterTopology.handles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.mechanism import BandwidthMechanism, MechanismHandle
from repro.faults.injector import FaultHandle
from repro.lustre.client import ClientProcess
from repro.lustre.network import Network
from repro.lustre.oss import Oss
from repro.lustre.ost import Ost
from repro.numeric import fold_sum
from repro.scenarios.spec import MIB, ScenarioSpec
from repro.sim.engine import Environment
from repro.workloads.spec import validate_jobs

__all__ = ["ClusterTopology", "build"]


@dataclass
class ClusterTopology:
    """A materialized spec: handles to every component of one experiment.

    ``osts``, ``osses`` and ``handles`` list one entry per target, in OST
    order; ``ost`` and ``oss`` are the first target, for one-OST
    experiments.  Each handle is the mechanism installed on that target,
    so ``handles[0].controller`` is the first OST's AdapTBF controller
    when the spec's mechanism is ``adaptbf``.
    """

    env: Environment
    spec: ScenarioSpec
    osts: List[Ost]
    osses: List[Oss]
    network: Network
    clients: List[ClientProcess] = field(default_factory=list)
    #: The resolved bandwidth mechanism (shared by every OST's handle).
    mechanism: Optional[BandwidthMechanism] = None
    #: One installed mechanism handle per OST — decentralized, no shared
    #: state between them beyond the (static) job→nodes map.
    handles: List[MechanismHandle] = field(default_factory=list)
    #: One installed fault handle per spec fault (chaos axis), in spec order.
    fault_handles: List[FaultHandle] = field(default_factory=list)

    @property
    def ost(self) -> Ost:
        return self.osts[0]

    @property
    def oss(self) -> Oss:
        return self.osses[0]

    @property
    def client_processes(self):
        return [client.process for client in self.clients]

    def all_clients_done(self):
        """Event that fires when every client process has finished."""
        return self.env.all_of(self.client_processes)

    def teardown(self) -> None:
        """Tear down every OST's mechanism (stop loops, remove rules)."""
        for handle in self.handles:
            handle.teardown()
        for fault in self.fault_handles:
            fault.teardown()

    # -- fault-axis aggregation --------------------------------------------
    @property
    def rpcs_dropped(self) -> int:
        """Crash-aborted in-flight transfers, summed over every OSS."""
        return sum(oss.rpcs_dropped for oss in self.osses)  # repro: allow[no-float-sum] reason=integer RPC counts

    @property
    def rpcs_retried(self) -> int:
        """Crash-requeued RPCs, summed over every OSS."""
        return sum(oss.rpcs_retried for oss in self.osses)  # repro: allow[no-float-sum] reason=integer RPC counts

    def fault_window(self) -> Optional[Tuple[float, float]]:
        """The union disturbance span of every installed fault, or None.

        Computed statically from the fault parameters (the handles publish
        their windows at install time), so during/after fairness buckets
        are known before the run starts.
        """
        windows = [w for handle in self.fault_handles for w in handle.windows]
        if not windows:
            return None
        return min(w[0] for w in windows), max(w[1] for w in windows)

    def total_capacity_bps(self) -> float:
        return fold_sum(ost.capacity_bps for ost in self.osts)

    def mean_utilization(self, since: float, until: Optional[float] = None) -> float:
        total = fold_sum(ost.utilization(since, until) for ost in self.osts)
        return total / len(self.osts)


def build(spec: ScenarioSpec, env: Optional[Environment] = None) -> ClusterTopology:
    """Materialize ``spec`` into a ready-to-run :class:`ClusterTopology`.

    The policy's mechanism name resolves through the mechanism registry;
    ``build`` only sequences resolve → NRS construction → per-OST install.
    """
    from repro.lustre.striping import StripeLayout

    # An explicitly-supplied environment wins (callers may pre-configure
    # tracing or a start time).
    env = env if env is not None else Environment()
    topology = spec.topology
    validate_jobs(list(spec.jobs))
    mechanism = spec.policy.resolve_mechanism()

    osts: List[Ost] = []
    osses: List[Oss] = []
    for index, capacity_mib_s in enumerate(topology.capacities_mib_s):
        ost = Ost(env, f"OST{index:04d}", capacity_bps=capacity_mib_s * MIB)
        osts.append(ost)
        osses.append(
            Oss(
                env,
                ost,
                mechanism.nrs_policy(env),
                io_threads=topology.io_threads,
            )
        )
    network = Network(env, latency_s=topology.net_latency_s)

    cluster = ClusterTopology(
        env=env,
        spec=spec,
        osts=osts,
        osses=osses,
        network=network,
        mechanism=mechanism,
    )
    cluster.handles = [
        mechanism.install(env, oss, spec, ost_index=index)
        for index, oss in enumerate(osses)
    ]

    # Round-robin file placement: process k's file starts on OST
    # (k mod n_osts) and spans `stripe_count` targets, like Lustre's
    # default allocator spreading files across the cluster.
    file_counter = 0
    for job in spec.jobs:
        for proc_index, proc in enumerate(job.processes):
            start = file_counter % topology.n_osts
            file_counter += 1
            targets = [
                osses[(start + k) % topology.n_osts]
                for k in range(topology.stripe_count)
            ]
            layout = StripeLayout(targets, stripe_size=topology.rpc_size)
            cluster.clients.append(
                ClientProcess(
                    env,
                    network,
                    targets[0],
                    job_id=job.job_id,
                    client_id=f"{job.job_id}.p{proc_index}",
                    program=proc.pattern.program,
                    rpc_size=topology.rpc_size,
                    window=proc.window,
                    layout=layout,
                )
            )

    # Faults install last — injectors may inspect (and churn) the fully
    # assembled cluster, clients included.
    if spec.faults:
        from repro.faults import FAULTS

        cluster.fault_handles = [
            FAULTS.build(fault.name, **fault.kwargs).install(env, cluster)
            for fault in spec.faults
        ]
    return cluster

