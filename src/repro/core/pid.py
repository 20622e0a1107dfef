"""PID-style control-theoretic rate controller (DESIGN.md deviation 8).

A contender from outside the paper: related work mitigates shared-storage
congestion with classical feedback control (Collignon et al., *Mitigating
Shared Storage Congestion Using Control Theory*; Tavakoli et al. steer QoS
targets centrally) instead of token borrowing.  This module maps that idea
onto the same TBF substrate AdapTBF drives, so the two families are
comparable head-to-head on identical hardware:

* the **controlled variable** is each job's share of the *delivered*
  throughput this period (served RPCs), compared against its
  node-proportional entitlement over the active set — the same
  renormalized priority as AdapTBF step 1, so priorities mean the same
  thing in both mechanisms;
* the **actuator** is the job's TBF rule rate, expressed as a fraction of
  ``T_i``: a positional PID adds a feedback correction to the entitlement
  (``share = p_x + Kp·e + Ki·I + Kd·ΔE``), so a persistently underserved
  job's integral term wins it head-room beyond its entitlement (the
  feedback analogue of token borrowing) and an overserving job is squeezed
  toward the floor;
* the integral is a **leaky** accumulator with an anti-windup clamp, so
  corrections fade once the error disappears instead of pinning rates
  after a long contention episode.

Admission-style regulation (holding the NRS queue at a reference depth)
is deliberately *not* used: simulated clients issue through blocking I/O
windows, so backlog is conserved and a queue setpoint below the aggregate
window is structurally unreachable — see DESIGN.md deviation 8 for the
full mapping rationale.

Everything is per-OST and decentralized, exactly like AdapTBF: one
:class:`PidRateController` handle (driven by a
:class:`~repro.core.mechanism.PeriodicDriver`) per target, no cross-OST
state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping

from repro.core.mechanism import (
    MECHANISMS,
    BandwidthMechanism,
    MechanismHandle,
    PeriodicDriver,
)
from repro.lustre.oss import Oss
from repro.lustre.tbf import TbfRule

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.engine import Environment

__all__ = ["PidRateMechanism", "PidRateController"]

#: Managed rules are named ``pid_{job_id}``.
RULE_PREFIX = "pid_"


class PidRateMechanism(BandwidthMechanism):
    """Throughput-share tracking PID control over TBF rule rates.

    Parameters
    ----------
    kp, ki, kd:
        Positional PID gains on the normalized share error
        ``e_x = (p_x·S − s_x) / S`` (entitled minus measured share of the
        ``S`` RPCs delivered this period; ``e_x ∈ [−1, 1]``).
    leak:
        Integral retention per round (leaky integrator); corrections decay
        once the error disappears instead of pinning rates.
    windup:
        Anti-windup clamp on the integral term, in error units.
    floor_share:
        Lower clamp on any active job's rate as a fraction of ``T_i``;
        keeps every job serviceable (the no-starvation analogue of the
        paper's fallback queue).
    """

    def __init__(
        self,
        kp: float = 0.8,
        ki: float = 0.15,
        kd: float = 0.0,
        leak: float = 0.9,
        windup: float = 10.0,
        floor_share: float = 0.02,
    ) -> None:
        if min(kp, ki, kd) < 0:
            raise ValueError("PID gains must be non-negative")
        if not 0 <= leak <= 1:
            raise ValueError(f"leak must be in [0, 1], got {leak}")
        if windup <= 0:
            raise ValueError(f"windup must be positive, got {windup}")
        if not 0 < floor_share <= 1:
            raise ValueError(
                f"floor_share must be in (0, 1], got {floor_share}"
            )
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self.leak = leak
        self.windup = windup
        self.floor_share = floor_share

    def install(
        self,
        env: "Environment",
        oss: Oss,
        spec: "ScenarioSpec",
        ost_index: int = 0,
        algorithm_factory=None,
    ) -> MechanismHandle:
        handle = PidRateController(
            self,
            oss,
            ost_index,
            nodes=spec.nodes,
            max_token_rate=spec.topology.max_token_rate(ost_index),
            bucket_depth=spec.policy.bucket_depth,
        )
        handle.driver = PeriodicDriver(
            env,
            handle,
            interval_s=spec.policy.interval_s,
            overhead_s=spec.policy.overhead_s,
        )
        return handle


class PidRateController(MechanismHandle):
    """Per-OST PID state plus TBF rule management."""

    def __init__(
        self,
        mechanism: PidRateMechanism,
        oss: Oss,
        ost_index: int,
        nodes: Mapping[str, int],
        max_token_rate: float,
        bucket_depth: float,
    ) -> None:
        super().__init__(mechanism, oss, ost_index)
        self.nodes = dict(nodes)
        self.max_token_rate = float(max_token_rate)
        self.bucket_depth = float(bucket_depth)
        self.driver: PeriodicDriver = None  # type: ignore[assignment]
        #: Per-job leaky integral and previous error.
        self._integral: Dict[str, float] = {}
        self._last_error: Dict[str, float] = {}
        self._served: Dict[str, int] = {}
        self._rules_created = 0
        self._rules_stopped = 0
        self._rate_changes = 0

    # -- per-round control cycle -------------------------------------------
    def observe(self) -> Dict[str, int]:
        """Demand per job (served + outstanding, DESIGN.md deviation 7).

        Also captures this period's *served* counters — the measured
        variable the PID tracks — and clears the tracker so each round
        sees one period, mirroring the AdapTBF controller's step 9.
        """
        tracker = self.oss.jobstats
        snapshot = tracker.snapshot()
        self._served = {job: stats.served for job, stats in snapshot.items()}
        demands = tracker.demands()
        tracker.clear()
        return demands

    def allocate(self, demands: Mapping[str, int]) -> Dict[str, float]:
        """One positional PID step per active job on the share error."""
        mech: PidRateMechanism = self.mechanism  # type: ignore[assignment]
        active = sorted(j for j in demands if j in self.nodes)
        # Feedback state dies with the contention episode it measured.
        for job in list(self._integral):
            if job not in active:
                self._integral.pop(job, None)
                self._last_error.pop(job, None)
        if not active:
            return {}
        total_nodes = sum(self.nodes[j] for j in active)
        delivered = sum(self._served.get(j, 0) for j in active)
        rates: Dict[str, float] = {}
        for job in active:
            entitlement = self.nodes[job] / total_nodes
            if delivered > 0:
                error = (
                    entitlement * delivered - self._served.get(job, 0)
                ) / delivered
            else:
                error = 0.0
            integral = mech.leak * self._integral.get(job, 0.0) + error
            integral = max(-mech.windup, min(mech.windup, integral))
            derivative = error - self._last_error.get(job, error)
            self._integral[job] = integral
            self._last_error[job] = error
            share = (
                entitlement
                + mech.kp * error
                + mech.ki * integral
                + mech.kd * derivative
            )
            share = max(mech.floor_share, min(1.0, share))
            rates[job] = share * self.max_token_rate
        return rates

    def apply(self, rates: Mapping[str, float]) -> None:
        """Reconcile live ``pid_*`` rules with the decided rates."""
        policy = self.oss.policy
        ranks = self._ranks(rates)
        for name in list(policy.rule_names()):
            if not name.startswith(RULE_PREFIX):
                continue
            if name[len(RULE_PREFIX):] not in rates:
                policy.stop_rule(name)
                self._rules_stopped += 1
        for job_id, rate in rates.items():
            name = f"{RULE_PREFIX}{job_id}"
            if policy.has_rule_for_job(job_id):
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

    def teardown(self) -> None:
        if self.driver is not None:
            self.driver.stop()
        policy = self.oss.policy
        for name in list(policy.rule_names()):
            if name.startswith(RULE_PREFIX):
                policy.stop_rule(name)

    def _ranks(self, rates: Mapping[str, float]) -> Dict[str, int]:
        ordered = sorted(rates, key=lambda j: (-self.nodes.get(j, 0), j))
        return {job: rank for rank, job in enumerate(ordered)}

    # -- introspection ------------------------------------------------------
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


@MECHANISMS.register(
    "pid",
    description="control-theoretic PID tracking of per-job throughput shares",
)
def _pid(
    kp: float = 0.8,
    ki: float = 0.15,
    kd: float = 0.0,
    leak: float = 0.9,
    windup: float = 10.0,
    floor_share: float = 0.02,
) -> PidRateMechanism:
    """Per-job PID loops steering TBF rates toward entitlement shares.

    Parameters
    ----------
    kp:
        Proportional gain on the share-tracking error.
    ki:
        Integral gain (error accumulated across rounds).
    kd:
        Derivative gain on the error's round-to-round change.
    leak:
        Per-round decay of the integral term (leaky anti-windup; 1.0
        disables the leak).
    windup:
        Hard clamp on the integral term's magnitude.
    floor_share:
        Minimum share of the OST rate any active job's rule may fall to,
        preventing controller-induced starvation.
    """
    return PidRateMechanism(
        kp=kp,
        ki=ki,
        kd=kd,
        leak=leak,
        windup=windup,
        floor_share=floor_share,
    )
