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

:class:`ClusterConfig` and :func:`build_cluster` are the pre-pipeline
imperative surface, kept for callers that assemble topology+policy knobs by
hand; both are thin shims over the spec path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.framework import AdapTbf
from repro.core.mechanism import BandwidthMechanism, MechanismHandle
from repro.faults.injector import FaultHandle
from repro.lustre.client import ClientProcess
from repro.lustre.network import Network
from repro.lustre.oss import Oss
from repro.lustre.ost import Ost
from repro.scenarios.spec import (
    MIB,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.sim.engine import Environment
from repro.workloads.spec import JobSpec, validate_jobs

__all__ = [
    "ClusterConfig",
    "Cluster",
    "ClusterTopology",
    "build",
    "build_cluster",
]


@dataclass(frozen=True)
class ClusterConfig:
    """Flat cluster + mechanism parameters (pre-pipeline surface).

    Every field maps onto :class:`~repro.scenarios.spec.TopologySpec` or
    :class:`~repro.scenarios.spec.PolicySpec`; see those for semantics.
    New code should build a :class:`ScenarioSpec` instead.
    """

    mechanism: str = "adaptbf"
    mechanism_params: Mapping[str, Any] = ()
    capacity_mib_s: float = 1024.0
    rpc_size: int = MIB
    io_threads: int = 16
    net_latency_s: float = 100e-6
    interval_s: float = 0.1
    overhead_s: float = 0.0
    bucket_depth: float = 3.0
    variant: str = "full"
    n_osts: int = 1
    stripe_count: int = 1
    ost_capacities_mib_s: Optional[Tuple[float, ...]] = None
    keep_history: Union[bool, int] = True

    def __post_init__(self) -> None:
        # Validation is delegated to the spec family.
        self.topology_spec()
        self.policy_spec()

    def topology_spec(self) -> TopologySpec:
        return TopologySpec(
            n_osts=self.n_osts,
            capacity_mib_s=self.capacity_mib_s,
            ost_capacities_mib_s=self.ost_capacities_mib_s,
            stripe_count=self.stripe_count,
            rpc_size=self.rpc_size,
            io_threads=self.io_threads,
            net_latency_s=self.net_latency_s,
        )

    def policy_spec(self) -> PolicySpec:
        return PolicySpec(
            mechanism=self.mechanism,
            mechanism_params=self.mechanism_params,
            interval_s=self.interval_s,
            overhead_s=self.overhead_s,
            bucket_depth=self.bucket_depth,
            variant=self.variant,
            keep_history=self.keep_history,
        )

    def to_spec(
        self,
        jobs: List[JobSpec],
        name: str = "adhoc",
        duration_s: Optional[float] = None,
        bin_s: Optional[float] = None,
    ) -> ScenarioSpec:
        return ScenarioSpec(
            name=name,
            jobs=tuple(jobs),
            topology=self.topology_spec(),
            policy=self.policy_spec(),
            run=RunSpec(duration_s=duration_s, bin_s=bin_s),
        )

    @property
    def capacity_bps(self) -> float:
        return self.capacity_mib_s * MIB

    @property
    def max_token_rate(self) -> float:
        """``T_i``: tokens/second one (uniform) OST can actually serve."""
        return self.capacity_bps / self.rpc_size


@dataclass
class ClusterTopology:
    """A materialized spec: handles to every component of one experiment.

    Single-OST accessors (``ost``, ``oss``, ``adaptbf``) refer to the first
    target and remain the convenient surface for the common one-OST
    experiments; multi-OST code iterates ``osts`` / ``osses`` /
    ``handles``.
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
    def config(self) -> ClusterConfig:
        """The spec's topology+policy flattened to the legacy knob set."""
        topo, pol = self.spec.topology, self.spec.policy
        return ClusterConfig(
            mechanism=pol.mechanism,
            mechanism_params=pol.mechanism_params,
            capacity_mib_s=topo.capacity_mib_s,
            rpc_size=topo.rpc_size,
            io_threads=topo.io_threads,
            net_latency_s=topo.net_latency_s,
            interval_s=pol.interval_s,
            overhead_s=pol.overhead_s,
            bucket_depth=pol.bucket_depth,
            variant=pol.variant,
            n_osts=topo.n_osts,
            stripe_count=topo.stripe_count,
            ost_capacities_mib_s=topo.ost_capacities_mib_s,
            keep_history=pol.keep_history,
        )

    @property
    def controllers(self) -> List[AdapTbf]:
        """Per-OST :class:`AdapTbf` facades (empty for other mechanisms)."""
        return [
            handle.adaptbf
            for handle in self.handles
            if handle.adaptbf is not None
        ]

    @property
    def static_rates(self) -> Optional[List[Dict[str, float]]]:
        """Static rule rates per OST (None unless the mechanism fixes them)."""
        rates = [handle.static_rates for handle in self.handles]
        if any(r is not None for r in rates):
            return [r if r is not None else {} for r in rates]
        return None

    @property
    def ost(self) -> Ost:
        return self.osts[0]

    @property
    def oss(self) -> Oss:
        return self.osses[0]

    @property
    def adaptbf(self) -> Optional[AdapTbf]:
        controllers = self.controllers
        return controllers[0] if controllers else None

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
        return sum(oss.rpcs_dropped for oss in self.osses)

    @property
    def rpcs_retried(self) -> int:
        """Crash-requeued RPCs, summed over every OSS."""
        return sum(oss.rpcs_retried for oss in self.osses)

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
        return sum(ost.capacity_bps for ost in self.osts)

    def mean_utilization(self, since: float, until: Optional[float] = None) -> float:
        return sum(ost.utilization(since, until) for ost in self.osts) / len(
            self.osts
        )


#: Pre-pipeline name for :class:`ClusterTopology`.
Cluster = ClusterTopology


def build(
    spec: ScenarioSpec,
    env: Optional[Environment] = None,
    algorithm_factory=None,
) -> ClusterTopology:
    """Materialize ``spec`` into a ready-to-run :class:`ClusterTopology`.

    The policy's mechanism name resolves through the mechanism registry;
    ``build`` only sequences resolve → NRS construction → per-OST install.
    ``algorithm_factory`` (no-arg callable returning a
    :class:`~repro.core.allocation.TokenAllocationAlgorithm`) overrides the
    AdapTBF-family algorithm construction — the hook for injecting custom
    estimators or experimental allocator builds; one instance is created
    per OST.
    """
    from repro.lustre.striping import StripeLayout

    # An explicitly-supplied environment wins (callers may pre-configure
    # tracing or reuse).
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
        mechanism.install(
            env,
            oss,
            spec,
            ost_index=index,
            algorithm_factory=algorithm_factory,
        )
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


def build_cluster(
    env: Environment,
    config: ClusterConfig,
    jobs: List[JobSpec],
    algorithm_factory=None,
) -> ClusterTopology:
    """Assemble a cluster from the flat pre-pipeline knob set."""
    return build(config.to_spec(jobs), env=env, algorithm_factory=algorithm_factory)
