"""Centralized SDN bandwidth controller (the decentralization-tax contrast).

AdapTBF's headline claim is comparative: *decentralized* token borrowing —
one controller per OST, no cross-OST communication — beats centralized
control once the control plane has real latency.  This module supplies the
centralized contender that claim needs: a single software-defined
controller process with **full cluster visibility** (related work: Tavakoli
et al., software-defined QoS management for HPC storage) that recomputes
per-OST/per-job rate rules every control round and pushes them to the data
plane through a configurable control-plane model:

* ``ctrl_latency_s`` — one-way flight time of the control plane, paid twice
  per decision (observations travel to the controller, rule updates travel
  back);
* ``staleness_s``    — additional observation age beyond the flight time
  (collection pipelines, database refresh);
* ``batch_rounds``   — update batching: the controller acts on every
  ``batch_rounds``-th observation tick instead of every one.

All three are sweepable factory parameters, which is exactly what the
``decentralization-tax`` campaign sweeps.  Every control-plane effect is
modeled through ordinary simulation timeouts, so observations and rule
pushes land at deterministic ``(time, priority, seq)`` positions — traces
stay bit-identical run over run and campaign rows byte-identical across
``--jobs`` fan-out.

The controller allocates each OST's token budget by **water-filling**:
node-weighted shares capped at each job's observed demand rate (times
``demand_slack``), surplus redistributed to still-unsatisfied jobs, and a
``headroom`` fraction left unallocated so demand the stale view has not
seen yet can drain through the TBF fallback queue.  With a zero-latency
control plane this is an oracle allocator — it sees exact demand and wastes
nothing — and the mechanism matches or beats the decentralized contenders.
As latency grows the view ages: rates chase demand that has moved on,
``overshoot_bytes`` (tokens granted beyond live backlog) climbs, and the
decentralization tax becomes measurable.

Crash semantics: an offline OST reports no observations and receives no
updates — an in-flight rule push addressed to a dead OST is **dropped**
(counted in ``stale_drops``), never applied, so recovery always starts
from the live rule table and the next round re-converges the rates.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.mechanism import (
    MECHANISMS,
    BandwidthMechanism,
    MechanismHandle,
)
from repro.lustre.oss import Oss
from repro.lustre.tbf import TbfRule

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.engine import Environment

__all__ = ["SdnControllerMechanism", "SdnOstAgent", "CentralController"]

#: Managed rules are named ``sdn_{job_id}``.
RULE_PREFIX = "sdn_"

#: Float slack for budget/cap comparisons in the water-filling loop.
_EPS = 1e-9

#: One cluster-wide observation: per-OST, per-job demand counts.
Observation = Dict[int, Dict[str, int]]


class SdnControllerMechanism(BandwidthMechanism):
    """Global QoS controller with a modeled (lossy-in-time) control plane.

    One central controller process per cluster recomputes every OST's
    per-job TBF rates each control round from a cluster-wide demand view
    that is ``ctrl_latency_s + staleness_s`` old, and pushes the rule
    updates back across the same ``ctrl_latency_s`` flight — the inverse
    of the paper's one-controller-per-OST deployment, priced explicitly.
    """

    def __init__(
        self,
        ctrl_latency_s: float = 0.0,
        staleness_s: float = 0.0,
        batch_rounds: int = 1,
        headroom: float = 0.02,
        demand_slack: float = 1.5,
    ) -> None:
        if ctrl_latency_s < 0:
            raise ValueError(
                f"ctrl_latency_s must be >= 0, got {ctrl_latency_s}"
            )
        if staleness_s < 0:
            raise ValueError(f"staleness_s must be >= 0, got {staleness_s}")
        if int(batch_rounds) != batch_rounds or batch_rounds < 1:
            raise ValueError(
                f"batch_rounds must be a positive integer, got {batch_rounds}"
            )
        if not 0 <= headroom < 1:
            raise ValueError(f"headroom must be in [0, 1), got {headroom}")
        if demand_slack < 1:
            raise ValueError(
                f"demand_slack must be >= 1, got {demand_slack}"
            )
        self.ctrl_latency_s = float(ctrl_latency_s)
        self.staleness_s = float(staleness_s)
        self.batch_rounds = int(batch_rounds)
        self.headroom = float(headroom)
        self.demand_slack = float(demand_slack)
        #: One central controller per environment (i.e. per built cluster);
        #: handles register with it at install and the last teardown drops
        #: it.  Keyed by the environment so a mechanism instance reused
        #: across builds never leaks state between clusters.
        self._controllers: Dict["Environment", CentralController] = {}

    def install(
        self,
        env: "Environment",
        oss: Oss,
        spec: "ScenarioSpec",
        ost_index: int = 0,
        algorithm_factory: Optional[Any] = None,
    ) -> MechanismHandle:
        controller = self._controllers.get(env)
        if controller is None:
            controller = CentralController(env, self, spec)
            self._controllers[env] = controller
        agent = SdnOstAgent(
            self,
            oss,
            ost_index,
            controller,
            nodes=spec.nodes,
            max_token_rate=spec.topology.max_token_rate(ost_index),
            bucket_depth=spec.policy.bucket_depth,
            rpc_size=spec.topology.rpc_size,
        )
        controller.register(agent)
        return agent

    def _drop_controller(self, env: "Environment") -> None:
        self._controllers.pop(env, None)


class CentralController:
    """The one controller process serving every OST of a cluster.

    Each ``interval_s`` it samples every online OST's demand (the sample is
    taken locally and *aged* before use — the flight to the controller),
    recomputes per-OST water-filled rates from the newest sufficiently old
    view, and spawns a delivery process that sleeps the return flight and
    applies the updates.  Deliveries addressed to OSTs that crashed while
    the update was in flight are dropped, never applied.
    """

    def __init__(
        self,
        env: "Environment",
        mechanism: SdnControllerMechanism,
        spec: "ScenarioSpec",
    ) -> None:
        self.env = env
        self.mechanism = mechanism
        self.interval_s = float(spec.policy.interval_s)
        self.overhead_s = float(spec.policy.overhead_s)
        self.agents: Dict[int, "SdnOstAgent"] = {}
        #: Decision rounds the controller has completed (cluster-wide).
        self.rounds_run = 0
        self._tick = 0
        self._stopped = False
        view_age = mechanism.ctrl_latency_s + mechanism.staleness_s
        self._samples: Deque[Tuple[float, Observation]] = deque(
            maxlen=int(view_age / self.interval_s) + 2
        )
        self.process = env.process(self._loop(), name="mechanism.sdn")

    # -- registration ------------------------------------------------------
    def register(self, agent: "SdnOstAgent") -> None:
        self.agents[agent.ost_index] = agent

    def unregister(self, agent: "SdnOstAgent") -> None:
        self.agents.pop(agent.ost_index, None)
        if not self.agents:
            self._stopped = True
            self.mechanism._drop_controller(self.env)

    # -- the control loop --------------------------------------------------
    def _loop(self) -> Iterator[object]:
        env = self.env
        mechanism = self.mechanism
        while True:
            yield env.timeout(self.interval_s)
            if self._stopped:
                return
            sample: Observation = {}
            for index in sorted(self.agents):
                agent = self.agents[index]
                if agent.oss.offline:
                    continue  # a dead OST reports nothing
                sample[index] = agent.observe()
            self._samples.append((env.now, sample))
            self._tick += 1
            if self._tick % mechanism.batch_rounds:
                continue  # batching: act on every batch_rounds-th tick
            view = self._view(env.now)
            if view is None:
                continue  # nothing old enough has reached the controller
            obs_time, observed = view
            decisions: Dict[int, Dict[str, float]] = {}
            for index in sorted(observed):
                agent_for = self.agents.get(index)
                if agent_for is None:
                    continue
                decisions[index] = self.allocate_ost(
                    agent_for, observed[index]
                )
            self.rounds_run += 1
            env.process(
                self._deliver(obs_time, decisions), name="mechanism.sdn.push"
            )

    def _view(self, now: float) -> Optional[Tuple[float, Observation]]:
        """Newest sample old enough to have reached the controller."""
        age = self.mechanism.ctrl_latency_s + self.mechanism.staleness_s
        newest: Optional[Tuple[float, Observation]] = None
        for when, sample in self._samples:
            if when <= now - age + _EPS:
                newest = (when, sample)
        return newest

    def _deliver(
        self, obs_time: float, decisions: Dict[int, Dict[str, float]]
    ) -> Iterator[object]:
        """The return flight: rules land ``ctrl_latency_s`` after deciding."""
        yield self.env.timeout(
            self.mechanism.ctrl_latency_s + self.overhead_s
        )
        if self._stopped:
            return
        for index in sorted(decisions):
            agent = self.agents.get(index)
            if agent is None:
                continue
            agent.deliver(decisions[index], obs_time)

    # -- allocation --------------------------------------------------------
    def allocate_ost(
        self, agent: "SdnOstAgent", demands: Mapping[str, int]
    ) -> Dict[str, float]:
        """Water-fill one OST's budget over its (viewed) active jobs.

        Node-weighted shares of ``(1 - headroom) · T_i``, capped at each
        job's observed demand rate times ``demand_slack``; the surplus of
        capped jobs is redistributed to the still-unsatisfied until the
        budget or the demand runs out.  Allocated rates therefore never
        exceed the budget (token conservation) and never exceed what the
        view says a job can use (which is precisely what goes wrong, by
        measurable degrees, as the view ages).
        """
        mechanism = self.mechanism
        nodes = agent.nodes
        active = sorted(
            job for job, d in demands.items() if d > 0 and job in nodes
        )
        if not active:
            return {}
        budget = (1.0 - mechanism.headroom) * agent.max_token_rate
        caps = {
            job: mechanism.demand_slack * demands[job] / self.interval_s
            for job in active
        }
        rates = dict.fromkeys(active, 0.0)
        unsatisfied: List[str] = list(active)
        remaining = budget
        while unsatisfied and remaining > _EPS:
            total_nodes = sum(nodes[job] for job in unsatisfied)
            capped = [
                job
                for job in unsatisfied
                if rates[job] + remaining * nodes[job] / total_nodes
                >= caps[job] - _EPS
            ]
            if not capped:
                for job in unsatisfied:
                    rates[job] += remaining * nodes[job] / total_nodes
                break
            for job in capped:
                remaining -= caps[job] - rates[job]
                rates[job] = caps[job]
            remaining = max(0.0, remaining)
            unsatisfied = [job for job in unsatisfied if job not in capped]
        return rates


class SdnOstAgent(MechanismHandle):
    """The data-plane agent on one OSS/OST pair.

    Owns no policy: it reports demand when the controller samples, applies
    whatever rule updates arrive, and keeps the lag/overshoot accounting
    the decentralization-tax columns are built from.
    """

    def __init__(
        self,
        mechanism: SdnControllerMechanism,
        oss: Oss,
        ost_index: int,
        controller: CentralController,
        nodes: Mapping[str, int],
        max_token_rate: float,
        bucket_depth: float,
        rpc_size: int,
    ) -> None:
        super().__init__(mechanism, oss, ost_index)
        self.controller = controller
        self.nodes = dict(nodes)
        self.max_token_rate = float(max_token_rate)
        self.bucket_depth = float(bucket_depth)
        self.rpc_size = int(rpc_size)
        #: Rule pushes dropped because this OST was offline when they landed.
        self.stale_drops = 0
        self._rounds = 0
        self._rules_created = 0
        self._rules_stopped = 0
        self._rate_changes = 0
        self._lag_total_s = 0.0
        self._updates = 0
        self._overshoot_bytes = 0.0

    # -- per-round control cycle -------------------------------------------
    def observe(self) -> Dict[str, int]:
        """Demand per job (served + outstanding), clearing the period."""
        tracker = self.oss.jobstats
        demands = tracker.demands()
        tracker.clear()
        return demands

    def allocate(self, demands: Mapping[str, int]) -> Dict[str, float]:
        """Single-step hook: the central allocation on this OST's demands."""
        return self.controller.allocate_ost(self, demands)

    def apply(self, rates: Mapping[str, float]) -> None:
        """Reconcile live ``sdn_*`` rules with the decided rates."""
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

    def deliver(self, rates: Mapping[str, float], obs_time: float) -> None:
        """One rule push landing from the controller.

        A push addressed to an offline OST is dropped (the stale update
        must never be applied over a crash); otherwise the lag and
        overshoot accounting runs against the *live* state before the
        rules change.
        """
        if self.oss.offline:
            self.stale_drops += 1
            return
        env = self.controller.env
        self._lag_total_s += env.now - obs_time
        self._updates += 1
        self._record_overshoot(rates)
        self.apply(rates)
        self._rounds += 1

    def _record_overshoot(self, rates: Mapping[str, float]) -> None:
        """Tokens granted beyond each job's live demand, in bytes.

        The grant was computed from a view ``rule_lag_s`` old; whatever
        exceeds the job's *current* outstanding work is capacity reserved
        for demand that no longer exists — the measurable staleness cost.
        """
        tracker = self.oss.jobstats
        interval = self.controller.interval_s
        for job in sorted(rates):
            granted_tokens = rates[job] * interval
            live_tokens = float(tracker.outstanding(job))
            if granted_tokens > live_tokens:
                self._overshoot_bytes += (
                    granted_tokens - live_tokens
                ) * self.rpc_size

    def teardown(self) -> None:
        self.controller.unregister(self)
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
        return self._rounds

    @property
    def rule_lag_s(self) -> float:
        return self._lag_total_s / self._updates if self._updates else 0.0

    @property
    def overshoot_bytes(self) -> float:
        return self._overshoot_bytes


@MECHANISMS.register(
    "sdn",
    description=(
        "centralized SDN controller with a modeled control plane "
        "(latency, staleness, batching)"
    ),
)
def _sdn(
    ctrl_latency_s: float = 0.0,
    staleness_s: float = 0.0,
    batch_rounds: int = 1,
    headroom: float = 0.02,
    demand_slack: float = 1.5,
) -> SdnControllerMechanism:
    """One global controller recomputing every OST's rules per round.

    Parameters
    ----------
    ctrl_latency_s:
        One-way control-plane latency in simulated seconds, paid twice
        per decision (observation flight + rule-update flight).  0 makes
        the controller an oracle; the decentralization-tax campaign
        sweeps this axis.
    staleness_s:
        Extra age of the demand view beyond the flight time (collection
        and aggregation pipelines).
    batch_rounds:
        The controller acts on every Nth observation tick, batching rule
        updates between decisions (1 = act every round).
    headroom:
        Fraction of each OST's token rate left unallocated so demand the
        stale view has not seen drains through the TBF fallback queue.
    demand_slack:
        Per-job rate cap as a multiple of the observed demand rate;
        larger values trust the stale view less.
    """
    return SdnControllerMechanism(
        ctrl_latency_s=ctrl_latency_s,
        staleness_s=staleness_s,
        batch_rounds=batch_rounds,
        headroom=headroom,
        demand_slack=demand_slack,
    )
