"""The declarative scenario specification family.

A :class:`ScenarioSpec` is a frozen, validated description of one complete
experiment — *what* to simulate, decoupled from the imperative machinery
that materializes and runs it:

* :class:`TopologySpec` — the storage cluster: OST/OSS counts, per-OST link
  rates (uniform or heterogeneous), striping, RPC geometry;
* the job mix — a tuple of :class:`~repro.workloads.spec.JobSpec` (arrival
  patterns, node counts and hence priorities, process counts);
* :class:`PolicySpec` — the bandwidth-control mechanism under test,
  resolved by name from the :data:`~repro.core.mechanism.MECHANISMS`
  registry (AdapTBF, the paper's baselines, or any registered contender)
  plus its knobs (interval, overhead, variant, mechanism parameters);
* :class:`RunSpec` — how to execute and what to measure (duration cap,
  seed, metrics to collect).

Specs flow through one pipeline::

    ScenarioSpec --build()--> ClusterTopology --run_scenario()--> RunResult

(:func:`repro.cluster.builder.build` and
:func:`repro.scenarios.runner.run_scenario`), and are registered by name in
the :class:`~repro.scenarios.registry.ScenarioRegistry` so every workload —
the paper's figures and anything new — is reachable from
``python -m repro.experiments run <name>``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.ablation import VARIANTS
from repro.core.mechanism import MECHANISMS, BandwidthMechanism
from repro.faults.spec import FaultSpec
from repro.numeric import fold_sum, is_count
from repro.registry import normalize_name
from repro.workloads.registry import reachable_secs
from repro.workloads.spec import JobSpec, validate_jobs

__all__ = [
    "MIB",
    "TopologySpec",
    "PolicySpec",
    "RunSpec",
    "ScenarioSpec",
    "METRIC_NAMES",
]

MIB = 1 << 20

#: Metric groups a run can collect; see :class:`RunSpec`.
METRIC_NAMES = ("summary", "timeline", "history", "utilization")


def _finite_positive(value: float) -> bool:
    return value > 0 and math.isfinite(value)


def _finite_non_negative(value: float) -> bool:
    return value >= 0 and math.isfinite(value)


@dataclass(frozen=True)
class TopologySpec:
    """The simulated storage cluster.

    Parameters
    ----------
    n_osts:
        Number of (OSS, OST) pairs; each runs its own NRS policy and (under
        AdapTBF) its own independent controller — the paper's decentralized
        deployment (§II-B).
    capacity_mib_s:
        Per-OST disk bandwidth in MiB/s (default ≈ the paper's SSD OST).
    ost_capacities_mib_s:
        Optional per-OST capacities for a *heterogeneous* cluster (length
        must equal ``n_osts``); overrides ``capacity_mib_s``.
    stripe_count:
        OSTs per file (Lustre layout).  1 places each process's file wholly
        on one OST, assigned round-robin; larger values stripe each file's
        chunks across that many OSTs.
    rpc_size:
        Bulk RPC payload; 1 token = 1 RPC of this size.
    io_threads:
        OSS I/O thread count (paper node: 16 cores).
    net_latency_s:
        One-way client↔OSS latency.
    """

    n_osts: int = 1
    capacity_mib_s: float = 1024.0
    ost_capacities_mib_s: Optional[Tuple[float, ...]] = None
    stripe_count: int = 1
    rpc_size: int = MIB
    io_threads: int = 16
    net_latency_s: float = 100e-6

    def __post_init__(self) -> None:
        if not is_count(self.n_osts):
            raise ValueError(f"n_osts must be an int >= 1, got {self.n_osts!r}")
        if not _finite_positive(self.capacity_mib_s):
            raise ValueError(
                "capacity_mib_s must be a finite positive number, "
                f"got {self.capacity_mib_s!r}"
            )
        if self.ost_capacities_mib_s is not None:
            caps = tuple(float(c) for c in self.ost_capacities_mib_s)
            object.__setattr__(self, "ost_capacities_mib_s", caps)
            if len(caps) != self.n_osts:
                raise ValueError(
                    f"ost_capacities_mib_s must list {self.n_osts} capacities,"
                    f" got {len(caps)}"
                )
            if not all(_finite_positive(c) for c in caps):
                raise ValueError(
                    "all OST capacities must be finite positive numbers, "
                    f"got {caps!r}"
                )
        if not is_count(self.rpc_size):
            raise ValueError(f"rpc_size must be an int >= 1, got {self.rpc_size!r}")
        if not is_count(self.io_threads):
            raise ValueError(
                f"io_threads must be an int >= 1, got {self.io_threads!r}"
            )
        if not _finite_non_negative(self.net_latency_s):
            raise ValueError(
                "net_latency_s must be a finite number >= 0, "
                f"got {self.net_latency_s!r}"
            )
        if not (is_count(self.stripe_count) and self.stripe_count <= self.n_osts):
            raise ValueError(
                "stripe_count must be an int in [1, n_osts], "
                f"got {self.stripe_count!r}"
            )

    @property
    def capacities_mib_s(self) -> Tuple[float, ...]:
        """Per-OST capacities, uniform unless overridden."""
        if self.ost_capacities_mib_s is not None:
            return self.ost_capacities_mib_s
        return (self.capacity_mib_s,) * self.n_osts

    @property
    def total_capacity_mib_s(self) -> float:
        return fold_sum(self.capacities_mib_s)

    def max_token_rate(self, ost_index: int = 0) -> float:
        """``T_i``: tokens/second OST ``ost_index`` can actually serve."""
        return self.capacities_mib_s[ost_index] * MIB / self.rpc_size


@dataclass(frozen=True)
class PolicySpec:
    """The bandwidth-control policy and its knobs.

    Parameters
    ----------
    mechanism:
        Name of a mechanism registered in
        :data:`repro.core.mechanism.MECHANISMS` — ``"none"`` (FIFO, no
        control), ``"static"`` (fixed TBF shares), ``"adaptbf"`` (the
        paper's framework), ``"adaptbf-ewma"``, ``"pid"``, or anything
        registered at runtime.  Validated (and normalized) at
        construction; resolved to a live
        :class:`~repro.core.mechanism.BandwidthMechanism` by
        :meth:`resolve_mechanism`.
    mechanism_params:
        Mechanism-specific factory overrides (e.g. ``{"alpha": 0.2}`` for
        ``adaptbf-ewma`` or ``{"kp": 0.8}`` for ``pid``).  Keys are
        validated against the registered factory's parameter schema;
        stored canonically as a sorted tuple of pairs so specs stay
        frozen, hashable and picklable.
    interval_s:
        AdapTBF observation period Δt (paper default 100 ms; ignored by
        the baselines).
    overhead_s:
        Simulated per-round AdapTBF overhead (§IV-G measured ~25 ms; 0
        models the paper's proposed in-Lustre integration).
    bucket_depth:
        TBF bucket depth for all rules, at least 1: an RPC costs one token,
        so a shallower bucket could never serve one.
    variant:
        AdapTBF algorithm variant from :data:`repro.core.ablation.VARIANTS`
        ("full" = the paper's design).
    keep_history:
        Controller history retention: ``True`` keeps every allocation round
        (the default — Fig. 7 is plotted from it), ``False`` keeps none,
        and an ``int`` caps retention to the most recent N rounds (bounded
        memory for long runs).  A kept round holds its time, demands,
        grants and a read-only ledger snapshot, not the per-job trace of
        the allocation.
    """

    mechanism: str = "adaptbf"
    mechanism_params: Mapping[str, Any] = ()
    interval_s: float = 0.1
    overhead_s: float = 0.0
    bucket_depth: float = 3.0
    variant: str = "full"
    keep_history: Union[bool, int] = True

    def __post_init__(self) -> None:
        name = normalize_name(
            getattr(self.mechanism, "value", self.mechanism)
        )
        try:
            entry = MECHANISMS.get(name)
        except KeyError:
            raise ValueError(
                f"unknown mechanism {self.mechanism!r}; registered: "
                f"{MECHANISMS.names()}"
            ) from None
        object.__setattr__(self, "mechanism", entry.name)
        params = self.mechanism_params
        if isinstance(params, Mapping):
            items = params.items()
        else:
            items = tuple(params)
        canonical = tuple(sorted((str(k), v) for k, v in items))
        unknown = {k for k, _ in canonical} - set(entry.params)
        if unknown:
            raise ValueError(
                f"mechanism {entry.name!r} has no parameter(s) "
                f"{sorted(unknown)}; accepted: {sorted(entry.params)}"
            )
        object.__setattr__(self, "mechanism_params", canonical)
        if not _finite_positive(self.interval_s):
            raise ValueError(
                "interval_s must be a finite positive number, "
                f"got {self.interval_s!r}"
            )
        if not _finite_non_negative(self.overhead_s):
            raise ValueError(
                f"overhead_s must be a finite number >= 0, got {self.overhead_s!r}"
            )
        if self.overhead_s >= self.interval_s:
            raise ValueError(
                "overhead_s must be smaller than interval_s "
                f"(got {self.overhead_s} >= {self.interval_s})"
            )
        if not (self.bucket_depth >= 1 and math.isfinite(self.bucket_depth)):
            raise ValueError(
                "bucket_depth must be a finite number >= 1 (an RPC costs one "
                f"token), got {self.bucket_depth!r}"
            )
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; options: {sorted(VARIANTS)}"
            )
        if not isinstance(self.keep_history, (bool, int)):
            raise ValueError("keep_history must be a bool or an int cap")
        if self.keep_history is not True and self.keep_history is not False:
            if self.keep_history <= 0:
                raise ValueError("keep_history cap must be positive")

    # -- mechanism resolution ----------------------------------------------
    @property
    def mechanism_kwargs(self) -> Dict[str, Any]:
        """The frozen parameter pairs as a plain factory-kwargs dict."""
        return dict(self.mechanism_params)

    def resolve_mechanism(self) -> "BandwidthMechanism":
        """Resolve the named mechanism with this policy's overrides."""
        return MECHANISMS.build(self.mechanism, **self.mechanism_kwargs)


@dataclass(frozen=True)
class RunSpec:
    """Execution and measurement parameters.

    Parameters
    ----------
    duration_s:
        Cap on simulated time; ``None`` runs until every client process
        finishes (the §IV-D style).
    bin_s:
        Timeline bin width; ``None`` follows the policy's ``interval_s``
        (the paper bins at its 100 ms observation granularity).
    seed:
        Seed for any randomized workload construction (e.g. the burst-storm
        scenario); the simulation itself is deterministic given the spec.
    metrics:
        Which metric groups to collect: any subset of
        ``("summary", "timeline", "history", "utilization")``.  Dropping
        ``timeline`` (which ``summary`` implies) skips per-RPC recording on
        the completion stream — useful for huge parameter sweeps.
    """

    duration_s: Optional[float] = None
    bin_s: Optional[float] = None
    seed: int = 0
    metrics: Tuple[str, ...] = METRIC_NAMES

    def __post_init__(self) -> None:
        for name in ("duration_s", "bin_s"):
            value = getattr(self, name)
            if value is not None and not _finite_positive(value):
                raise ValueError(
                    f"{name} must be a finite positive number (or None), "
                    f"got {value!r}"
                )
        metrics = tuple(self.metrics)
        object.__setattr__(self, "metrics", metrics)
        unknown = set(metrics) - set(METRIC_NAMES)
        if unknown:
            raise ValueError(
                f"unknown metrics {sorted(unknown)}; options: {METRIC_NAMES}"
            )

    def wants(self, metric: str) -> bool:
        if metric == "timeline":
            # A bandwidth summary is computed from the timeline.
            return "timeline" in self.metrics or "summary" in self.metrics
        return metric in self.metrics


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, validated experiment description.

    ``workload``/``workload_params`` record a workload-axis override
    (:meth:`with_workload`): when set, every process's pattern was rebuilt
    from that :data:`repro.workloads.registry.WORKLOADS` entry, and the
    pair is kept canonical (sorted tuple of items) so specs stay frozen,
    hashable and picklable for ``--jobs N`` campaign fan-out.
    """

    name: str
    jobs: Tuple[JobSpec, ...]
    topology: TopologySpec = field(default_factory=TopologySpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    run: RunSpec = field(default_factory=RunSpec)
    description: str = ""
    #: Registry name of the workload the job mix was rebuilt from, or ""
    #: when the jobs carry their scenario-native patterns.
    workload: str = ""
    #: Canonical (sorted tuple) factory overrides of that workload.
    workload_params: Mapping[str, Any] = ()
    #: Scheduled disturbances (:class:`~repro.faults.spec.FaultSpec`),
    #: installed by the cluster builder after the cluster is assembled.
    #: Frozen data only — the live injectors never live on the spec.
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        object.__setattr__(self, "jobs", tuple(self.jobs))
        validate_jobs(list(self.jobs))
        params = self.workload_params
        items = params.items() if isinstance(params, Mapping) else tuple(params)
        canonical = tuple(sorted((str(k), v) for k, v in items))
        object.__setattr__(self, "workload_params", canonical)
        if self.workload:
            from repro.workloads.registry import WORKLOADS

            try:
                entry = WORKLOADS.get(self.workload)
            except KeyError:
                raise ValueError(
                    f"unknown workload {self.workload!r}; registered: "
                    f"{WORKLOADS.names()}"
                ) from None
            object.__setattr__(self, "workload", entry.name)
            unknown = {k for k, _ in canonical} - set(entry.params)
            if unknown:
                raise ValueError(
                    f"workload {entry.name!r} has no parameter(s) "
                    f"{sorted(unknown)}; accepted: {sorted(entry.params)}"
                )
        elif canonical:
            raise ValueError("workload_params given without a workload name")
        faults = tuple(self.faults)
        for fault in faults:
            if not isinstance(fault, FaultSpec):
                raise ValueError(
                    f"faults must be FaultSpec instances, got {fault!r}; "
                    "use with_fault(name, params)"
                )
        object.__setattr__(self, "faults", faults)
        if self.run.duration_s is not None:
            reachable_secs("duration_s", self.run.duration_s, self.policy.interval_s)
        else:
            # A window that never closes (``duration_s=inf``) is a
            # legitimate fault, but only under a duration cap: a run to
            # client completion would never end behind a permanent crash.
            for fault in faults:
                if any(math.isinf(end) for _, end in fault.build().windows()):
                    raise ValueError(
                        f"fault {fault.name!r} never ends (duration_s=inf) "
                        "and the run has no duration cap; set one with "
                        "--duration"
                    )

    # -- derived views -----------------------------------------------------
    @property
    def job_ids(self) -> List[str]:
        return [job.job_id for job in self.jobs]

    @property
    def nodes(self) -> Dict[str, int]:
        return {job.job_id: job.nodes for job in self.jobs}

    @property
    def bin_s(self) -> float:
        """Resolved timeline bin width."""
        return self.run.bin_s if self.run.bin_s is not None else self.policy.interval_s

    # -- functional updates ------------------------------------------------
    def with_policy(self, **changes) -> "ScenarioSpec":
        """Copy with policy fields replaced (e.g. ``mechanism="static"``).

        Switching ``mechanism`` without explicitly passing
        ``mechanism_params`` resets the params: they belong to the outgoing
        mechanism's factory schema, and would otherwise fail validation (or
        silently mean something else) under the incoming one.
        """
        if (
            "mechanism" in changes
            and "mechanism_params" not in changes
            and normalize_name(
                getattr(changes["mechanism"], "value", changes["mechanism"])
            )
            != self.policy.mechanism
        ):
            changes["mechanism_params"] = ()
        return dataclasses.replace(
            self, policy=dataclasses.replace(self.policy, **changes)
        )

    def with_topology(self, **changes) -> "ScenarioSpec":
        """Copy with topology fields replaced."""
        return dataclasses.replace(
            self, topology=dataclasses.replace(self.topology, **changes)
        )

    def with_run(self, **changes) -> "ScenarioSpec":
        """Copy with run fields replaced (e.g. ``duration_s=2.0``)."""
        return dataclasses.replace(
            self, run=dataclasses.replace(self.run, **changes)
        )

    def with_workload(
        self, workload: str, workload_params: Mapping[str, Any] = ()
    ) -> "ScenarioSpec":
        """Copy with every process's pattern rebuilt from a registered workload.

        The scenario's job *structure* — job ids, node counts (hence
        priorities), process counts and windows — is preserved; only what
        each process *does* is swapped for the named
        :data:`~repro.workloads.registry.WORKLOADS` pattern.  This is what
        ``run <scenario> --workload NAME`` and the reserved ``workload``
        campaign axis do, making any scenario's contention structure
        reusable under any demand shape.

        If the workload factory takes a ``seed`` that ``workload_params``
        does not pin, the run's seed is passed — campaign cells' derived
        seeds reach pattern randomness with no extra plumbing.  One
        pattern instance is shared by all processes; patterns are
        stateless and seeded ones derive independent per-client RNG
        substreams, so sharing is sound.
        """
        from repro.workloads.registry import WORKLOADS

        try:
            entry = WORKLOADS.get(workload)
        except KeyError:
            raise ValueError(
                f"unknown workload {workload!r}; registered: "
                f"{WORKLOADS.names()}"
            ) from None
        params = (
            dict(workload_params)
            if isinstance(workload_params, Mapping)
            else dict(tuple(workload_params))
        )
        kwargs = dict(params)
        if "seed" in entry.params and "seed" not in kwargs:
            kwargs["seed"] = self.run.seed
        pattern = entry.build(**kwargs)
        jobs = tuple(
            dataclasses.replace(
                job,
                processes=tuple(
                    dataclasses.replace(proc, pattern=pattern)
                    for proc in job.processes
                ),
            )
            for job in self.jobs
        )
        return dataclasses.replace(
            self, jobs=jobs, workload=entry.name, workload_params=params
        )

    def with_fault(
        self, fault: str, fault_params: Mapping[str, Any] = ()
    ) -> "ScenarioSpec":
        """Copy with a scheduled disturbance appended to the fault axis.

        ``fault`` names an injector registered in
        :data:`~repro.faults.FAULTS`; parameters are validated against its
        factory schema at spec time, so a typo fails here and not mid-run.
        Faults compose — call repeatedly to layer an OST crash over client
        churn.  This is what ``run <scenario> --fault NAME`` and the
        reserved ``fault``/``fault_params`` campaign cell parameters do.

        If the injector factory takes a ``seed`` that ``fault_params``
        does not pin, the run's seed is passed — campaign cells' derived
        seeds reach fault randomness (churn victim selection) with no
        extra plumbing, mirroring :meth:`with_workload`.
        """
        from repro.faults import FAULTS

        try:
            entry = FAULTS.get(fault)
        except KeyError:
            raise ValueError(
                f"unknown fault {fault!r}; registered: {FAULTS.names()}"
            ) from None
        params = (
            dict(fault_params)
            if isinstance(fault_params, Mapping)
            else dict(tuple(fault_params))
        )
        if "seed" in entry.params and "seed" not in params:
            params["seed"] = self.run.seed
        return dataclasses.replace(
            self, faults=self.faults + (FaultSpec(entry.name, params),)
        )

    # -- description -------------------------------------------------------
    def describe(self) -> str:
        """Human-readable multi-line summary of the spec."""
        topo = self.topology
        if topo.ost_capacities_mib_s is not None:
            caps = "/".join(f"{c:g}" for c in topo.capacities_mib_s) + " MiB/s"
        else:
            caps = f"{topo.capacity_mib_s:g} MiB/s each"
        lines = [
            f"scenario: {self.name}",
        ]
        if self.description:
            lines.append(f"  {self.description}")
        if self.workload:
            wl_params = ", ".join(
                f"{k}={v!r}" for k, v in self.workload_params
            )
            lines.append(
                f"workload: {self.workload}"
                + (f" [{wl_params}]" if wl_params else "")
            )
        for fault in self.faults:
            f_params = ", ".join(f"{k}={v!r}" for k, v in fault.params)
            lines.append(
                f"fault:    {fault.name}"
                + (f" [{f_params}]" if f_params else "")
            )
        mech_params = ""
        if self.policy.mechanism_params:
            mech_params = (
                "["
                + ", ".join(
                    f"{k}={v!r}" for k, v in self.policy.mechanism_params
                )
                + "] "
            )
        lines += [
            f"topology: {topo.n_osts} OST(s) @ {caps}, "
            f"stripe_count={topo.stripe_count}, "
            f"rpc_size={topo.rpc_size // MIB} MiB",
            f"policy:   {self.policy.mechanism} {mech_params}"
            f"(interval={self.policy.interval_s:g}s, "
            f"overhead={self.policy.overhead_s:g}s, "
            f"variant={self.policy.variant})",
            f"run:      duration="
            + (
                f"{self.run.duration_s:g}s"
                if self.run.duration_s is not None
                else "until-complete"
            )
            + f", bin={self.bin_s:g}s, seed={self.run.seed}, "
            f"metrics={','.join(self.run.metrics)}",
            f"jobs ({len(self.jobs)}):",
        ]
        total_nodes = sum(job.nodes for job in self.jobs)  # repro: allow[no-float-sum] reason=integer node counts
        for job in self.jobs:
            share = 100.0 * job.nodes / total_nodes
            hint = job.total_bytes_hint
            volume = f"{hint / MIB:.0f} MiB" if hint is not None else "open-ended"
            lines.append(
                f"  {job.job_id}: {job.nodes} node(s) ({share:.0f}% priority), "
                f"{len(job.processes)} process(es), {volume}"
            )
        return "\n".join(lines)

