"""The pluggable bandwidth-mechanism API: protocol, registry, built-ins.

The paper's core claim is comparative — AdapTBF vs *No BW* vs *Static BW*
(§IV-C) — and this module makes the mechanism axis first-class instead of a
closed enum: a :class:`BandwidthMechanism` describes *how one OSS/OST pair
is bandwidth-controlled*, and the :data:`MECHANISMS` registry resolves
mechanisms by name with ``--param``-style overrides, exactly like scenarios
and campaigns.  Adding a contender is one registration — no builder, spec
or CLI edits::

    @MECHANISMS.register("my-mech", description="...")
    def _my_mech(gain: float = 0.5) -> BandwidthMechanism: ...

    spec.with_policy(mechanism="my-mech", mechanism_params={"gain": 0.8})

Lifecycle
---------
The cluster builder asks the mechanism for one NRS policy per OSS
(:meth:`BandwidthMechanism.nrs_policy`) and then calls
:meth:`BandwidthMechanism.install` once per (OSS, OST) pair — decentralized
by construction, mirroring the paper's one-controller-per-OST deployment
(§II-B).  ``install`` returns a :class:`MechanismHandle` exposing the
per-round control cycle as three explicit hooks:

* :meth:`MechanismHandle.observe`  — read demand/queue state off the OSS;
* :meth:`MechanismHandle.allocate` — turn observations into per-job token
  rates (tokens/second);
* :meth:`MechanismHandle.apply`    — push those rates into live TBF rules.

Self-clocked mechanisms (AdapTBF's own controller loop) drive the cycle
from their existing simulation process; loop-driven mechanisms reuse
:class:`PeriodicDriver`, which calls the three hooks every ``interval_s``
with the spec's simulated ``overhead_s`` between decision and enforcement.
Every handle that manages TBF rules holds one
:class:`~repro.core.rule_daemon.RuleManagementDaemon` as ``handle.rules``:
its ``apply`` reconciles through it, :meth:`MechanismHandle.teardown` sweeps
it, and the base class reads the rule-churn counters off it (0 for handles
without one).  With ``history`` and ``rounds_run`` that makes a uniform
introspection surface, so the experiment executor and campaign reducer
treat every mechanism identically.

Built-ins registered here: ``none``, ``static``, ``adaptbf`` (with its
ablation variants) and ``adaptbf-ewma`` (the §IV-E demand-prediction
extension); the control-theoretic ``pid`` contender lives in
:mod:`repro.core.pid`.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.core.ablation import VARIANTS
from repro.core.allocation import TokenAllocationAlgorithm
from repro.core.baselines import install_static_rules
from repro.core.controller import SystemStatsController
from repro.core.prediction import EwmaEstimator
from repro.core.rule_daemon import RuleManagementDaemon, node_ranks
from repro.core.types import AllocationInput, AllocationRound
from repro.lustre.nrs import FifoPolicy, NrsPolicy, TbfPolicy
from repro.lustre.oss import Oss
from repro.registry import FactoryRegistry, RegisteredFactory

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim.engine import Environment

__all__ = [
    "MechanismHandle",
    "BandwidthMechanism",
    "PeriodicDriver",
    "MechanismRegistry",
    "MECHANISMS",
    "NoBandwidthControl",
    "StaticBandwidthControl",
    "AdapTbfMechanism",
]


class MechanismHandle(ABC):
    """One mechanism installed on one (OSS, OST) pair.

    Subclasses override the per-round hooks they need; the defaults
    describe a mechanism that decides everything at install time (the
    *Static BW* shape) or not at all (*No BW*).  The introspection surface
    (``history``, churn counters, ``rounds_run``) defaults to "nothing to
    report" so reducers can sum over heterogeneous handles safely.
    """

    #: The handle's TBF rule reconciler; ``None`` when it manages no rules.
    rules: Optional[RuleManagementDaemon] = None

    def __init__(self, mechanism: "BandwidthMechanism", oss: Oss, ost_index: int) -> None:
        self.mechanism = mechanism
        self.oss = oss
        self.ost_index = ost_index

    # -- per-round control cycle -------------------------------------------
    def observe(self) -> Dict[str, int]:
        """Read this period's per-job demand signal off the OSS."""
        return {}

    def allocate(self, demands: Mapping[str, int]) -> Dict[str, float]:
        """Turn observed demands into per-job token rates (tokens/s)."""
        return {}

    def apply(self, rates: Mapping[str, float]) -> None:
        """Enforce the decided rates (create/re-rate/stop TBF rules)."""

    def teardown(self) -> None:
        """Stop any control loop and remove this handle's managed rules."""

    # -- uniform introspection ---------------------------------------------
    @property
    def history(self) -> Optional[Sequence[AllocationRound]]:
        """Retained allocation rounds, or None if the mechanism keeps none."""
        return None

    @property
    def rules_created(self) -> int:
        return self.rules.rules_created if self.rules is not None else 0

    @property
    def rules_stopped(self) -> int:
        return self.rules.rules_stopped if self.rules is not None else 0

    @property
    def rate_changes(self) -> int:
        return self.rules.rate_changes if self.rules is not None else 0

    @property
    def rounds_run(self) -> int:
        """Control rounds the mechanism has completed on this OST."""
        return 0

    @property
    def rule_lag_s(self) -> float:
        """Mean observation → enforcement lag of applied rule updates.

        0.0 for mechanisms that decide locally (their lag is only the
        spec's ``overhead_s``); centralized mechanisms report the full
        control-plane round trip here — the decentralization-tax column.
        """
        return 0.0

    @property
    def overshoot_bytes(self) -> float:
        """Bytes of rate granted beyond live demand at enforcement time.

        Measures staleness: how much capacity the mechanism's view
        allocated to demand that had already moved on.  0.0 for
        mechanisms whose decisions act on fresh local state.
        """
        return 0.0

    @property
    def reservation_util(self) -> Optional[float]:
        """Used ÷ reserved capacity, or None if nothing is reserved.

        Only reservation-based mechanisms (virtual circuits) report a
        value; the campaign reducer averages the non-None handles.
        """
        return None


class BandwidthMechanism(ABC):
    """A bandwidth-control mechanism, resolvable by name from the registry.

    Instances are cheap, stateless factories for per-OST machinery: state
    lives in the :class:`MechanismHandle` each :meth:`install` returns, so
    one mechanism instance can serve every OST of a cluster without any
    cross-OST coupling.
    """

    #: Registry name; stamped by :meth:`MechanismRegistry.build`.
    name: str = "?"
    #: Resolved factory parameters; stamped by :meth:`MechanismRegistry.build`.
    params: Mapping[str, Any] = {}

    def nrs_policy(self, env: "Environment") -> NrsPolicy:
        """The NRS scheduler each OSS needs (default: classful TBF)."""
        return TbfPolicy(env)

    @abstractmethod
    def install(
        self,
        env: "Environment",
        oss: Oss,
        spec: "ScenarioSpec",
        ost_index: int = 0,
    ) -> MechanismHandle:
        """Attach the mechanism to one OSS/OST pair and return its handle.

        ``spec`` supplies the shared policy knobs (``interval_s``,
        ``overhead_s``, ``bucket_depth``, ``keep_history``) and the
        job → nodes map.
        """

    def describe(self) -> str:
        """Human-readable summary: what the mechanism does and its knobs."""
        from repro.sim.engine import Environment

        doc = (inspect.getdoc(type(self)) or "").split("\n\n")[0]
        lines = [f"mechanism: {self.name}"]
        if doc:
            lines.append(f"  {doc}")
        # Probe the mechanism's own hook so overriding nrs_policy is enough.
        nrs = type(self.nrs_policy(Environment())).__name__
        lines.append(f"nrs: {nrs.removesuffix('Policy').lower()}")
        if self.params:
            lines.append("resolved parameters:")
            for key in sorted(self.params):
                lines.append(f"  {key} = {self.params[key]!r}")
        else:
            lines.append("resolved parameters: (none)")
        return "\n".join(lines)


class PeriodicDriver:
    """Generic observe → allocate → apply loop for loop-driven mechanisms.

    Mirrors the timing of AdapTBF's System Stats Controller: one cycle per
    ``interval_s`` of simulated time, with ``overhead_s`` elapsing between
    the allocation decision and its enforcement (the measured cost of the
    real prototype's procfs round trips, §IV-G).
    """

    def __init__(
        self,
        env: "Environment",
        handle: MechanismHandle,
        interval_s: float,
        overhead_s: float = 0.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        if not 0 <= overhead_s < interval_s:
            raise ValueError(
                "overhead must be in [0, interval_s) "
                f"(got {overhead_s} vs {interval_s})"
            )
        self.env = env
        self.handle = handle
        self.interval_s = float(interval_s)
        self.overhead_s = float(overhead_s)
        self.rounds_run = 0
        self._stopped = False
        self.process = env.process(
            self._loop(), name=f"mechanism.{handle.mechanism.name}"
        )

    def stop(self) -> None:
        """Halt the loop; the process exits at its next wake-up."""
        self._stopped = True

    def _loop(self):
        env = self.env
        while True:
            yield env.timeout(self.interval_s)
            if self._stopped:
                return
            demands = self.handle.observe()
            rates = self.handle.allocate(demands)
            if self.overhead_s:
                yield env.timeout(self.overhead_s)
            self.handle.apply(rates)
            self.rounds_run += 1


class MechanismRegistry(FactoryRegistry):
    """Name → mechanism-factory mapping behind ``--mechanism`` everywhere."""

    kind = "mechanism"
    override_flag = "--mechanism-param"

    def build(self, name: str, **overrides) -> BandwidthMechanism:
        """Resolve a mechanism instance, stamping its name and parameters."""
        entry = self.get(name)
        mechanism = entry.build(**overrides)
        mechanism.name = entry.name
        resolved = dict(entry.params)
        resolved.update(overrides)
        mechanism.params = resolved
        return mechanism

    def _describe_built(self, entry: RegisteredFactory) -> List[str]:
        return ["", self.build(entry.name).describe()]


#: The process-wide default registry; built-in mechanisms self-register on
#: ``import repro.core`` (which also pulls in :mod:`repro.core.pid`).
MECHANISMS = MechanismRegistry()


# ---------------------------------------------------------------------------
# Built-in mechanisms: the paper's three contenders + the §IV-E extension.
# ---------------------------------------------------------------------------


class NoBandwidthControl(BandwidthMechanism):
    """*No BW* (§IV-C): FIFO scheduling, no rate control at all.

    RPCs are served strictly first-come-first-serve; a single aggressive
    job can monopolise the OST — the failure mode the paper's introduction
    motivates.
    """

    def nrs_policy(self, env: "Environment") -> NrsPolicy:
        return FifoPolicy(env)

    def install(
        self,
        env: "Environment",
        oss: Oss,
        spec: "ScenarioSpec",
        ost_index: int = 0,
    ) -> MechanismHandle:
        return _InertHandle(self, oss, ost_index)


class _InertHandle(MechanismHandle):
    """Nothing installed, nothing to drive — the *No BW* handle."""


class StaticBandwidthControl(BandwidthMechanism):
    """*Static BW* (§IV-C): TBF rules fixed at global node share.

    One rule per job, rate ``T_i · n_x / Σn`` over **all** jobs in the
    system, installed at build time and never adapted — the "strict
    proportional limit" whose inefficiency motivates the paper.
    """

    def install(
        self,
        env: "Environment",
        oss: Oss,
        spec: "ScenarioSpec",
        ost_index: int = 0,
    ) -> MechanismHandle:
        rates = install_static_rules(
            oss.policy,
            nodes=spec.nodes,
            max_token_rate=spec.topology.max_token_rate(ost_index),
            bucket_depth=spec.policy.bucket_depth,
        )
        return _StaticHandle(self, oss, ost_index, rates)


class _StaticHandle(MechanismHandle):
    """Install-once: the whole mechanism is the fixed rate table.

    Its daemon only sweeps the install-time rules at teardown; those rules
    are not churn, so the counters stay 0.
    """

    def __init__(self, mechanism, oss, ost_index, rates: Dict[str, float]) -> None:
        super().__init__(mechanism, oss, ost_index)
        self._rates = dict(rates)
        self.rules: RuleManagementDaemon = RuleManagementDaemon(
            oss.policy, rule_prefix="static_"
        )

    def allocate(self, demands: Mapping[str, int]) -> Dict[str, float]:
        # The static scheme ignores demand by design.
        return dict(self._rates)

    def teardown(self) -> None:
        self.rules.teardown()


class AdapTbfMechanism(BandwidthMechanism):
    """The paper's framework: adaptive token borrowing, one controller per OST.

    Installs the pieces of paper Fig. 2 on one OST: the three-step token
    allocation algorithm, the rule management daemon and the system stats
    controller, which reads the OSS's stats tracker.  Each install touches
    nothing beyond its own OSS/OST, so a multi-target deployment is one
    install per target.  The controller's own simulation process drives
    the observe/allocate/apply cycle; the handle's hooks expose the same
    cycle for externally driven operation and tests.
    """

    def __init__(self, variant: str = "") -> None:
        if variant and variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r}; options: {sorted(VARIANTS)}"
            )
        #: Algorithm variant override; empty string defers to
        #: ``spec.policy.variant`` (the pipeline's ablation knob).
        self.variant = variant

    def _algorithm(self, spec: "ScenarioSpec") -> TokenAllocationAlgorithm:
        return VARIANTS[self.variant or spec.policy.variant]()

    def install(
        self,
        env: "Environment",
        oss: Oss,
        spec: "ScenarioSpec",
        ost_index: int = 0,
    ) -> MechanismHandle:
        # AdapTBF extends TBF; it cannot control a FIFO scheduler.
        if not isinstance(oss.policy, TbfPolicy):
            raise TypeError(
                "AdapTBF requires a TbfPolicy NRS; got "
                f"{type(oss.policy).__name__}"
            )
        algorithm = self._algorithm(spec)
        daemon = RuleManagementDaemon(
            oss.policy, bucket_depth=spec.policy.bucket_depth
        )
        controller = SystemStatsController(
            env,
            jobstats=oss.jobstats,
            algorithm=algorithm,
            daemon=daemon,
            nodes=spec.nodes,
            max_token_rate=spec.topology.max_token_rate(ost_index),
            interval_s=spec.policy.interval_s,
            overhead_s=spec.policy.overhead_s,
            keep_history=spec.policy.keep_history,
        )
        return AdapTbfHandle(self, oss, ost_index, controller)


class AdapTbfHandle(MechanismHandle):
    """Handle over one OST's AdapTBF controller, algorithm and rule daemon.

    The System Stats Controller is self-clocked; ``observe`` /
    ``allocate`` / ``apply`` run the identical round pieces on demand so
    harnesses (and the protocol's conformance tests) can single-step the
    mechanism without simulated time.  ``apply`` ranks by node count, which
    equals the controller's priority ranking (``p_x = n_x / Σn``).
    """

    def __init__(
        self, mechanism, oss, ost_index, controller: SystemStatsController
    ) -> None:
        super().__init__(mechanism, oss, ost_index)
        #: The System Stats Controller driving this OST's rounds.
        self.controller = controller
        #: Its token allocation algorithm (and lending/borrowing ledger).
        self.algorithm = controller.algorithm
        #: Its rule management daemon (also the handle's ``rules``).
        self.daemon = self.rules = controller.daemon

    def observe(self) -> Dict[str, int]:
        return self.controller.current_demands()

    def allocate(self, demands: Mapping[str, int]) -> Dict[str, float]:
        ctrl = self.controller
        known = {j: int(d) for j, d in demands.items() if j in ctrl.nodes}
        if not known:
            return {}
        result = self.algorithm.allocate(
            AllocationInput(
                interval_s=ctrl.interval_s,
                max_token_rate=ctrl.max_token_rate,
                demands=known,
                nodes=ctrl.nodes,
            )
        )
        return {
            job: tokens / ctrl.interval_s
            for job, tokens in result.allocations.items()
        }

    def apply(self, rates: Mapping[str, float]) -> None:
        self.daemon.reconcile(rates, node_ranks(rates, self.controller.nodes))

    def teardown(self) -> None:
        self.controller.stop()
        self.daemon.teardown()

    @property
    def history(self) -> Sequence[AllocationRound]:
        """Retained allocation rounds (Fig. 7 is plotted from this)."""
        return self.controller.history

    @property
    def rounds_run(self) -> int:
        return self.algorithm.rounds_run


class EwmaAdapTbfMechanism(AdapTbfMechanism):
    """AdapTBF with EWMA demand prediction (§IV-E pattern-hint extension).

    Identical token-borrowing pipeline, but the re-compensation step's
    future-utilization score (Eq. 11–12) uses an exponentially weighted
    moving average of each job's demand instead of last-value-carried-
    forward, so one idle interval doesn't zero a lender's claim.
    """

    def __init__(self, alpha: float = 0.4, variant: str = "") -> None:
        super().__init__(variant=variant)
        # Fail fast at resolve time, not on the first allocation round.
        EwmaEstimator(alpha)
        self.alpha = alpha

    def _algorithm(self, spec: "ScenarioSpec") -> TokenAllocationAlgorithm:
        algorithm = super()._algorithm(spec)
        algorithm.demand_estimator = EwmaEstimator(self.alpha)
        return algorithm


@MECHANISMS.register(
    "none", description="No BW baseline: FIFO scheduling, no rate control"
)
def _none() -> NoBandwidthControl:
    return NoBandwidthControl()


@MECHANISMS.register(
    "static",
    description="Static BW baseline: fixed node-proportional TBF rules",
)
def _static() -> StaticBandwidthControl:
    return StaticBandwidthControl()


@MECHANISMS.register(
    "adaptbf",
    description="the paper's adaptive token borrowing (variants via policy)",
)
def _adaptbf(variant: str = "") -> AdapTbfMechanism:
    """The paper's adaptive token-borrowing framework.

    Parameters
    ----------
    variant:
        Algorithm ablation variant ("full", "priority_only",
        "no_recompensation", "priority_blind_df"); empty defers to the
        policy spec's ``variant`` knob.
    """
    return AdapTbfMechanism(variant=variant)


@MECHANISMS.register(
    "adaptbf-ewma",
    description="AdapTBF with EWMA demand prediction (paper §IV-E extension)",
)
def _adaptbf_ewma(alpha: float = 0.4, variant: str = "") -> EwmaAdapTbfMechanism:
    """AdapTBF with EWMA demand prediction in the re-compensation step.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor in (0, 1]; higher weighs the latest
        demand observation more (1.0 degenerates to last-value).
    variant:
        Algorithm ablation variant; empty defers to the policy spec.
    """
    return EwmaAdapTbfMechanism(alpha=alpha, variant=variant)
