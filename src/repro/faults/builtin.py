"""Built-in fault injectors: the chaos axis the paper's premise implies.

AdapTBF's §II-B premise is that "the set of active applications on each
storage server is highly dynamic"; these injectors make that dynamism —
plus the hardware-side disturbances a production Lustre deployment sees —
a registry entry away from any scenario:

* ``ost-crash``   — an OST goes dark for a window: every in-flight transfer
  is failed through the lazy-cancellation machinery, the OSS requeues the
  aborted RPCs, and service resumes on recovery;
* ``ost-degrade`` — a straggler OST: mid-run capacity rescaling (RAID
  rebuild, media retirement, scrub contention);
* ``net-delay``   — hop latency inflation or a full partition window on the
  request path;
* ``client-churn`` — clients leave and join mid-run at swarm scale, the
  paper's dynamic-application-set premise made literal.

Every injector drives its transitions from an ordinary simulation process,
so injections are ordinary ``(time, priority, seq)`` events and traces stay
bit-identical run over run and across ``--jobs`` fan-out.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Tuple

from repro.faults.injector import FAULTS, FaultHandle, FaultInjector
from repro.sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import ClusterTopology
    from repro.sim.engine import Environment

__all__ = [
    "OstCrashInjector",
    "OstDegradeInjector",
    "NetDelayInjector",
    "ClientChurnInjector",
]


class _WindowedInjector(FaultInjector):
    """Shared shape: one ``[start_s, start_s + duration_s)`` window."""

    def __init__(self, start_s: float, duration_s: float) -> None:
        if not (start_s >= 0 and math.isfinite(start_s)):
            raise ValueError(
                f"start_s must be a finite number >= 0, got {start_s}"
            )
        # ``inf`` stays accepted: a window that never closes.
        if not duration_s > 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        self.start_s = float(start_s)
        self.duration_s = float(duration_s)

    def windows(self) -> Tuple[Tuple[float, float], ...]:
        return ((self.start_s, self.start_s + self.duration_s),)


def _check_ost_index(cluster: "ClusterTopology", index: int) -> int:
    n = len(cluster.osts)
    if not 0 <= index < n:
        raise ValueError(
            f"fault targets OST index {index}, but the cluster has {n} OST(s)"
        )
    return index


class OstCrashInjector(_WindowedInjector):
    """An OST goes dark for a window, then comes back.

    At ``start_s`` the target OSS is crashed: every in-flight transfer on
    its OST fails (partial bytes discarded), the I/O threads catch the
    failure and requeue the aborted RPCs, and the thread pool parks on the
    recovery broadcast.  At ``start_s + duration_s`` the OSS recovers and
    drains the backlog.  No client ever observes a failure — retried RPCs
    complete late, which is exactly how a Lustre client rides out an OST
    failover.
    """

    def __init__(self, start_s: float, duration_s: float, ost: int) -> None:
        super().__init__(start_s, duration_s)
        self.ost = int(ost)

    def install(
        self, env: "Environment", cluster: "ClusterTopology"
    ) -> FaultHandle:
        index = _check_ost_index(cluster, self.ost)
        handle = FaultHandle(self, self.windows())
        handle.process = env.process(
            self._drive(env, cluster.osses[index], handle),
            name=f"fault.{self.name}",
        )
        return handle

    def _drive(self, env, oss, handle):
        yield env.timeout(self.start_s)
        if handle.stopped:
            return
        oss.crash()
        handle.injections += 1
        yield env.timeout(self.duration_s)
        # Recover even when torn down mid-window: an offline OSS would
        # otherwise park its thread pool forever.
        oss.recover()
        handle.injections += 1


class OstDegradeInjector(_WindowedInjector):
    """A straggler OST: capacity rescaled for a window, then restored.

    Models degraded media / RAID rebuild / scrub contention.  The
    controller does not observe capacity directly — it keeps allocating
    tokens against the configured ``T_i`` — so this window is precisely
    when tokens outrun the disk and the mechanisms' backlog handling shows.
    """

    def __init__(
        self, start_s: float, duration_s: float, ost: int, factor: float
    ) -> None:
        super().__init__(start_s, duration_s)
        if not (factor > 0 and math.isfinite(factor)):
            raise ValueError(
                f"factor must be a finite positive number, got {factor}"
            )
        self.ost = int(ost)
        self.factor = float(factor)

    def install(
        self, env: "Environment", cluster: "ClusterTopology"
    ) -> FaultHandle:
        index = _check_ost_index(cluster, self.ost)
        handle = FaultHandle(self, self.windows())
        handle.process = env.process(
            self._drive(env, cluster.osts[index], handle),
            name=f"fault.{self.name}",
        )
        return handle

    def _drive(self, env, ost, handle):
        yield env.timeout(self.start_s)
        if handle.stopped:
            return
        healthy = ost.capacity_bps
        ost.set_capacity(healthy * self.factor)
        handle.injections += 1
        yield env.timeout(self.duration_s)
        ost.set_capacity(healthy)
        handle.injections += 1


class NetDelayInjector(_WindowedInjector):
    """Hop latency inflation — or a full partition — for a window.

    With ``partition=False`` the one-way latency becomes
    ``latency * factor + extra_s`` for the window.  With ``partition=True``
    the request path is severed instead: submissions queue inside the
    network and flood the OSSes in submission order when the window closes
    (in-flight replies still return — the reply path models the already-
    committed server work).
    """

    def __init__(
        self,
        start_s: float,
        duration_s: float,
        factor: float,
        extra_s: float,
        partition: bool,
    ) -> None:
        super().__init__(start_s, duration_s)
        if not (factor >= 0 and math.isfinite(factor)):
            raise ValueError(
                f"factor must be a finite number >= 0, got {factor}"
            )
        if not (extra_s >= 0 and math.isfinite(extra_s)):
            raise ValueError(
                f"extra_s must be a finite number >= 0, got {extra_s}"
            )
        self.factor = float(factor)
        self.extra_s = float(extra_s)
        self.partition = bool(partition)

    def install(
        self, env: "Environment", cluster: "ClusterTopology"
    ) -> FaultHandle:
        handle = FaultHandle(self, self.windows())
        handle.process = env.process(
            self._drive(env, cluster.network, handle),
            name=f"fault.{self.name}",
        )
        return handle

    def _drive(self, env, network, handle):
        yield env.timeout(self.start_s)
        if handle.stopped:
            return
        if self.partition:
            network.set_partitioned(True)
        else:
            healthy = network.latency_s
            network.set_latency(healthy * self.factor + self.extra_s)
        handle.injections += 1
        yield env.timeout(self.duration_s)
        if self.partition:
            network.set_partitioned(False)
        else:
            network.set_latency(healthy)
        handle.injections += 1


class ClientChurnInjector(_WindowedInjector):
    """Clients leave at the window start and join at its end.

    ``leaves`` running clients (drawn from a seeded
    :class:`~repro.sim.rng.RngStreams` substream, optionally restricted to
    one job) are terminated cleanly at ``start_s`` — their processes close,
    their queued RPCs still complete, nothing fails.  At the window end,
    ``joins`` fresh clients join the (possibly different) ``job``'s
    workload, cloned from that job's first process spec.  Joined clients
    are not part of the run's completion condition, so churn scenarios
    should cap ``duration_s`` in their run spec.
    """

    def __init__(
        self,
        start_s: float,
        duration_s: float,
        leaves: int,
        joins: int,
        job: str,
        seed: int,
    ) -> None:
        super().__init__(start_s, duration_s)
        if leaves < 0 or joins < 0:
            raise ValueError("leaves and joins must be >= 0")
        self.leaves = int(leaves)
        self.joins = int(joins)
        self.job = str(job)
        self.seed = int(seed)

    def install(
        self, env: "Environment", cluster: "ClusterTopology"
    ) -> FaultHandle:
        if self.job and self.job not in {j.job_id for j in cluster.spec.jobs}:
            raise ValueError(
                f"fault targets unknown job {self.job!r}; jobs: "
                f"{sorted(cluster.spec.nodes)}"
            )
        handle = FaultHandle(self, self.windows())
        handle.process = env.process(
            self._drive(env, cluster, handle), name=f"fault.{self.name}"
        )
        return handle

    def _drive(self, env, cluster, handle):
        rng = RngStreams(self.seed).get_stdlib(f"fault.{self.name}")
        yield env.timeout(self.start_s)
        if handle.stopped:
            return
        # Leave: clients listed in deterministic build order; the seeded
        # substream picks victims reproducibly across runs and workers.
        candidates = [
            client
            for client in cluster.clients
            if client.process.is_alive
            and (not self.job or client.io.job_id == self.job)
        ]
        victims = rng.sample(candidates, min(self.leaves, len(candidates)))
        for client in victims:
            client.process.kill()
            handle.injections += 1
        yield env.timeout(self.duration_s)
        self._join(env, cluster, handle)

    def _join(self, env, cluster, handle):
        from repro.lustre.client import ClientProcess
        from repro.lustre.striping import StripeLayout

        spec = cluster.spec
        topology = spec.topology
        job_id = self.job or spec.jobs[0].job_id
        jobspec = next(j for j in spec.jobs if j.job_id == job_id)
        proto = jobspec.processes[0]
        for k in range(self.joins):
            start = k % topology.n_osts
            targets = [
                cluster.osses[(start + i) % topology.n_osts]
                for i in range(topology.stripe_count)
            ]
            layout = StripeLayout(targets, stripe_size=topology.rpc_size)
            cluster.clients.append(
                ClientProcess(
                    env,
                    cluster.network,
                    targets[0],
                    job_id=job_id,
                    client_id=f"{job_id}.join{k}",
                    program=proto.pattern.program,
                    rpc_size=topology.rpc_size,
                    window=proto.window,
                    layout=layout,
                )
            )
            handle.injections += 1


@FAULTS.register(
    "ost-crash", description="OST dark for a window; aborted RPCs requeue"
)
def _ost_crash(
    start_s: float = 1.0, duration_s: float = 0.5, ost: int = 0
) -> OstCrashInjector:
    """Scheduled OST crash/recovery with clean in-flight teardown.

    Parameters
    ----------
    start_s:
        Simulated time the OST goes dark.
    duration_s:
        How long it stays dark before recovering.
    ost:
        Index of the target OST.
    """
    return OstCrashInjector(start_s=start_s, duration_s=duration_s, ost=ost)


@FAULTS.register(
    "ost-degrade", description="straggler OST: capacity rescaled for a window"
)
def _ost_degrade(
    start_s: float = 1.0,
    duration_s: float = 1.0,
    ost: int = 0,
    factor: float = 0.25,
) -> OstDegradeInjector:
    """Mid-run OST capacity rescaling (RAID rebuild / scrub contention).

    Parameters
    ----------
    start_s:
        Simulated time the degradation begins.
    duration_s:
        How long the OST stays degraded.
    ost:
        Index of the target OST.
    factor:
        Capacity multiplier during the window (0.25 = quarter speed;
        values > 1 model a burst-buffer assist).
    """
    return OstDegradeInjector(
        start_s=start_s, duration_s=duration_s, ost=ost, factor=factor
    )


@FAULTS.register(
    "net-delay", description="hop latency inflation or a partition window"
)
def _net_delay(
    start_s: float = 1.0,
    duration_s: float = 0.5,
    factor: float = 10.0,
    extra_s: float = 0.0,
    partition: bool = False,
) -> NetDelayInjector:
    """Network disturbance on the request path.

    Parameters
    ----------
    start_s:
        Simulated time the disturbance begins.
    duration_s:
        Window length.
    factor:
        Latency multiplier during the window (ignored when partitioned).
    extra_s:
        Additive latency during the window — reaches zero-latency fabrics
        that a pure multiplier cannot.
    partition:
        Sever the request path instead: submissions queue in the network
        and flood the OSSes in order when the window closes.
    """
    return NetDelayInjector(
        start_s=start_s,
        duration_s=duration_s,
        factor=factor,
        extra_s=extra_s,
        partition=partition,
    )


@FAULTS.register(
    "client-churn", description="clients leave and join mid-run"
)
def _client_churn(
    start_s: float = 1.0,
    duration_s: float = 1.0,
    leaves: int = 1,
    joins: int = 1,
    job: str = "",
    seed: int = 0,
) -> ClientChurnInjector:
    """Client join/leave churn — the dynamic application set of §II-B.

    Parameters
    ----------
    start_s:
        Simulated time the leave wave fires.
    duration_s:
        Gap between the leave wave and the join wave.
    leaves:
        Clients terminated at ``start_s`` (clamped to how many are alive).
    joins:
        Clients added at ``start_s + duration_s``.
    job:
        Restrict leaves to, and clone joins from, this job id; empty
        means leave from any job and join the first.
    seed:
        Seed of the victim-selection substream (the run's seed unless
        pinned, via ``with_fault``'s auto-injection).
    """
    return ClientChurnInjector(
        start_s=start_s,
        duration_s=duration_s,
        leaves=leaves,
        joins=joins,
        job=job,
        seed=seed,
    )
