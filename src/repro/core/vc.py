"""Guaranteed-bandwidth virtual circuits with overbooked admission control.

The second centralized-era contender for the decentralization-tax
comparison (related work: Freemon, *long fat networks* — end-to-end
reserved-bandwidth circuits): each job requests a **static guaranteed
rate** up front, an admission controller accepts requests in priority
order until an **overbooked** budget is exhausted, and admitted circuits
keep their reservation for the whole run.  This is the opposite design
point from AdapTBF's per-round borrowing:

* reservations are decided once, from declared (not observed) demand —
  there is no control plane to be late, but also no adaptation;
* ``overbook`` inflates the admission budget past the OST's token rate,
  the classic trick for recovering utilization from bursty reservations —
  the :attr:`~VirtualCircuitTable.reservation_util` column measures how
  much of the reserved capacity was actually used;
* a slow **audit loop** (the only dynamic part) preempts circuits that
  have sat idle for ``idle_rounds`` consecutive rounds *when a denied
  request is waiting with backlog*, and admits waiters into the freed
  budget — admission/preemption bookkeeping, not rate adaptation.

Jobs denied a circuit are not dropped: they fall through to the TBF
fallback queue and are served opportunistically (the same no-starvation
path the paper's fallback rule provides), so every client always
finishes — just without a guarantee.

Everything is per-OST and deterministic: admission order is the fixed
priority order ``(-nodes, job)``, audits run on the shared
:class:`~repro.core.mechanism.PeriodicDriver` clock, and the reservation
ledger (a time-integral of reserved tokens) advances only at simulated
event times.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from repro.core.mechanism import (
    MECHANISMS,
    BandwidthMechanism,
    MechanismHandle,
    PeriodicDriver,
)
from repro.lustre.oss import Oss
from repro.lustre.rpc import Rpc
from repro.lustre.tbf import TbfRule

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.engine import Environment

__all__ = ["VirtualCircuitMechanism", "VirtualCircuitTable"]

#: Managed rules are named ``vc_{job_id}``.
RULE_PREFIX = "vc_"

#: Float slack for admission-budget comparisons.
_EPS = 1e-9


class VirtualCircuitMechanism(BandwidthMechanism):
    """Static guaranteed-bandwidth reservations with overbooked admission.

    Parameters
    ----------
    overbook:
        Admission budget as a multiple of the OST token rate; > 1 admits
        more guaranteed rate than physically exists, betting (like every
        circuit provider) that reservations are not all busy at once.
    request_factor:
        Each job requests this multiple of its node-proportional share —
        circuits are sized for peaks, not averages.
    idle_rounds:
        Consecutive idle audit rounds after which a circuit may be
        preempted in favour of a waiting (denied) request with backlog.
    """

    def __init__(
        self,
        overbook: float = 1.2,
        request_factor: float = 1.5,
        idle_rounds: int = 2,
    ) -> None:
        if overbook < 1:
            raise ValueError(f"overbook must be >= 1, got {overbook}")
        if request_factor <= 0:
            raise ValueError(
                f"request_factor must be positive, got {request_factor}"
            )
        if int(idle_rounds) != idle_rounds or idle_rounds < 1:
            raise ValueError(
                f"idle_rounds must be a positive integer, got {idle_rounds}"
            )
        self.overbook = float(overbook)
        self.request_factor = float(request_factor)
        self.idle_rounds = int(idle_rounds)

    def install(
        self,
        env: "Environment",
        oss: Oss,
        spec: "ScenarioSpec",
        ost_index: int = 0,
        algorithm_factory: Optional[Any] = None,
    ) -> MechanismHandle:
        handle = VirtualCircuitTable(
            self,
            oss,
            ost_index,
            env,
            nodes=spec.nodes,
            max_token_rate=spec.topology.max_token_rate(ost_index),
            bucket_depth=spec.policy.bucket_depth,
            rpc_size=spec.topology.rpc_size,
        )
        handle.driver = PeriodicDriver(
            env,
            handle,
            interval_s=spec.policy.interval_s,
            overhead_s=spec.policy.overhead_s,
        )
        # Reservations are static: circuits are provisioned at install
        # time, before any I/O, not discovered by the audit loop.
        handle.apply(handle.admit_initial())
        return handle


class VirtualCircuitTable(MechanismHandle):
    """Per-OST circuit table: reservations, waitlist, and the usage ledger."""

    def __init__(
        self,
        mechanism: VirtualCircuitMechanism,
        oss: Oss,
        ost_index: int,
        env: "Environment",
        nodes: Mapping[str, int],
        max_token_rate: float,
        bucket_depth: float,
        rpc_size: int,
    ) -> None:
        super().__init__(mechanism, oss, ost_index)
        self.env = env
        self.nodes = dict(nodes)
        self.max_token_rate = float(max_token_rate)
        self.bucket_depth = float(bucket_depth)
        self.rpc_size = int(rpc_size)
        self.driver: PeriodicDriver = None  # type: ignore[assignment]
        #: Guaranteed rate each job requested (fixed at install).
        self.requests: Dict[str, float] = {}
        #: Live circuits: job → reserved rate (tokens/s).
        self.admitted: Dict[str, float] = {}
        #: Denied requests, in denial order — the admission waitlist.
        self.waiting: List[str] = []
        self.circuits_admitted = 0
        self.circuits_denied = 0
        self.circuits_preempted = 0
        self._idle: Dict[str, int] = {}
        self._rules_created = 0
        self._rules_stopped = 0
        self._rate_changes = 0
        # Reservation ledger: time-integral of reserved tokens vs bytes
        # actually moved by circuit holders — the utilization metric.
        self._reserved_rate = 0.0
        self._reserved_integral = 0.0
        self._last_change = float(env.now)
        self._served_bytes = 0
        oss.on_complete(self._record_served)

    # -- admission control --------------------------------------------------
    def admit_initial(self) -> Dict[str, float]:
        """Size every job's request and admit in priority order."""
        mechanism = self._mechanism()
        total_nodes = sum(self.nodes.values())
        for job in self._priority_order(self.nodes):
            self.requests[job] = (
                mechanism.request_factor
                * self.max_token_rate
                * self.nodes[job]
                / total_nodes
            )
        budget = mechanism.overbook * self.max_token_rate
        for job in self._priority_order(self.requests):
            rate = self.requests[job]
            if self._reserved_sum() + rate <= budget + _EPS:
                self.admitted[job] = rate
                self.circuits_admitted += 1
            else:
                self.waiting.append(job)
                self.circuits_denied += 1
        return dict(self.admitted)

    # -- per-round audit cycle ----------------------------------------------
    def observe(self) -> Dict[str, int]:
        """Demand per job (served + outstanding), clearing the period."""
        tracker = self.oss.jobstats
        demands = tracker.demands()
        tracker.clear()
        return demands

    def allocate(self, demands: Mapping[str, int]) -> Dict[str, float]:
        """One audit round: idle accounting, preemption, waitlist admission.

        Rates never adapt — a circuit's rate is its reservation.  The only
        moves are bookkeeping: a circuit idle for ``idle_rounds``
        consecutive audits is preempted *iff* a waiting request has
        backlog, and freed budget admits waiters in waitlist order.
        """
        mechanism = self._mechanism()
        for job in self._priority_order(self.admitted):
            if demands.get(job, 0) > 0:
                self._idle[job] = 0
            else:
                self._idle[job] = self._idle.get(job, 0) + 1
        backlogged = [job for job in self.waiting if demands.get(job, 0) > 0]
        if backlogged:
            for job in self._priority_order(self.admitted):
                if self._idle.get(job, 0) >= mechanism.idle_rounds:
                    del self.admitted[job]
                    self._idle.pop(job, None)
                    self.waiting.append(job)
                    self.circuits_preempted += 1
        budget = mechanism.overbook * self.max_token_rate
        still_waiting: List[str] = []
        for job in self.waiting:
            rate = self.requests[job]
            if (
                demands.get(job, 0) > 0
                and self._reserved_sum() + rate <= budget + _EPS
            ):
                self.admitted[job] = rate
                self._idle[job] = 0
                self.circuits_admitted += 1
            else:
                still_waiting.append(job)
        self.waiting = still_waiting
        return dict(self.admitted)

    def apply(self, rates: Mapping[str, float]) -> None:
        """Reconcile live ``vc_*`` rules with the circuit table."""
        policy = self.oss.policy
        ranks = self._ranks(rates)
        for name in list(policy.rule_names()):
            if not name.startswith(RULE_PREFIX):
                continue
            if name[len(RULE_PREFIX):] not in rates:
                policy.stop_rule(name)
                self._rules_stopped += 1
        for job_id in sorted(rates):
            rate = rates[job_id]
            name = f"{RULE_PREFIX}{job_id}"
            if policy.has_rule_for_job(job_id):
                rule = policy.get_rule(name)
                if rule.rate != rate or rule.rank != ranks[job_id]:
                    policy.change_rate(name, rate, rank=ranks[job_id])
                    self._rate_changes += 1
            else:
                policy.start_rule(
                    TbfRule(
                        name=name,
                        job_id=job_id,
                        rate=rate,
                        depth=self.bucket_depth,
                        rank=ranks[job_id],
                    )
                )
                self._rules_created += 1
        self._settle_ledger(sum(rates.values()))

    def teardown(self) -> None:
        if self.driver is not None:
            self.driver.stop()
        policy = self.oss.policy
        for name in list(policy.rule_names()):
            if name.startswith(RULE_PREFIX):
                policy.stop_rule(name)
        self._settle_ledger(0.0)

    # -- ledger --------------------------------------------------------------
    def _record_served(self, rpc: Rpc) -> None:
        if rpc.job_id in self.admitted:
            self._served_bytes += rpc.size_bytes

    def _settle_ledger(self, new_rate: float) -> None:
        now = float(self.env.now)
        self._reserved_integral += self._reserved_rate * (
            now - self._last_change
        )
        self._last_change = now
        self._reserved_rate = new_rate

    # -- helpers --------------------------------------------------------------
    def _mechanism(self) -> VirtualCircuitMechanism:
        mechanism = self.mechanism
        assert isinstance(mechanism, VirtualCircuitMechanism)
        return mechanism

    def _reserved_sum(self) -> float:
        return sum(self.admitted.values())

    def _priority_order(self, jobs: Mapping[str, Any]) -> List[str]:
        return sorted(jobs, key=lambda j: (-self.nodes.get(j, 0), j))

    def _ranks(self, rates: Mapping[str, float]) -> Dict[str, int]:
        ordered = self._priority_order(rates)
        return {job: rank for rank, job in enumerate(ordered)}

    # -- introspection ---------------------------------------------------------
    @property
    def rules_created(self) -> int:
        return self._rules_created

    @property
    def rules_stopped(self) -> int:
        return self._rules_stopped

    @property
    def rate_changes(self) -> int:
        return self._rate_changes

    @property
    def rounds_run(self) -> int:
        return self.driver.rounds_run if self.driver is not None else 0

    @property
    def reservation_util(self) -> Optional[float]:
        """Bytes moved by circuit holders ÷ bytes their reservations bought.

        The denominator is the ledger's time-integral of reserved tokens
        (converted to bytes at the topology RPC size) up to the current
        simulated time; overbooked-but-idle circuits pull this toward 0.
        """
        integral = self._reserved_integral + self._reserved_rate * (
            float(self.env.now) - self._last_change
        )
        reserved_bytes = integral * self.rpc_size
        if reserved_bytes <= 0:
            return 0.0
        return self._served_bytes / reserved_bytes


@MECHANISMS.register(
    "vc",
    description=(
        "static guaranteed-bandwidth virtual circuits with overbooked "
        "admission and idle preemption"
    ),
)
def _vc(
    overbook: float = 1.2,
    request_factor: float = 1.5,
    idle_rounds: int = 2,
) -> VirtualCircuitMechanism:
    """Static reserved-rate circuits behind an overbooked admission gate.

    Parameters
    ----------
    overbook:
        Admission budget as a multiple of the OST token rate (>= 1);
        higher values admit more guaranteed rate than exists, trading
        isolation for utilization.
    request_factor:
        Each job's requested rate as a multiple of its node-proportional
        share — circuits are provisioned for peak, not average, demand.
    idle_rounds:
        Consecutive idle audit rounds before a circuit may be preempted
        in favour of a waiting request with backlog.
    """
    return VirtualCircuitMechanism(
        overbook=overbook,
        request_factor=request_factor,
        idle_rounds=idle_rounds,
    )
