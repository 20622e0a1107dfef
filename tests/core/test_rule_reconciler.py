"""Differential test: the one rule reconciler against the four it replaced.

Before :class:`~repro.core.rule_daemon.RuleManagementDaemon` became the
only TBF rule writer, each rule-managing mechanism carried its own copy.
The ``Reference*`` classes below are verbatim copies of those four writers
and their teardown sweeps:

* ``RuleManagementDaemon.apply`` with its ``_ranks``, the System Stats
  Controller's no-demand path (``_any_managed_rules`` + ``_stop_all_rules``)
  and ``AdapTbfHandle.teardown``;
* ``PidRateController.apply``, ``SdnOstAgent.apply`` and
  ``VirtualCircuitTable.apply`` with their ``teardown`` sweeps and
  ``_ranks`` copies.

The only edits: the module constant ``RULE_PREFIX`` became a class
attribute, ``self.daemon`` became ``self``, vc's ledger call became a
no-op, and the pid/sdn/vc sweeps and rank helpers, identical but for the
prefix, are kept once in their shared base.  Each reference and the production code under test drive their own
real :class:`~repro.lustre.nrs.TbfPolicy` through the same sequence of rate
maps; the ordered ``start_rule``/``stop_rule``/``change_rate`` calls with
their arguments (a re-rate is logged per entry of the ``change_rates``
batch that carries it), the final rule table and the three churn counters
must agree exactly, before and after teardown.  The references get job-id
sorted maps, as production hands them; the code under test gets the same
maps in reverse order, so it must do its own sorting.

This pins the fold to its predecessors; it is not an independent oracle of
paper §III-D.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import TokenAllocationAlgorithm
from repro.core.pid import PidRateController, PidRateMechanism
from repro.core.rule_daemon import RuleManagementDaemon
from repro.core.sdn import SdnControllerMechanism, SdnOstAgent
from repro.core.types import AllocationInput, AllocationResult, JobAllocation, JobTrace
from repro.core.vc import VirtualCircuitMechanism, VirtualCircuitTable
from repro.lustre.nrs import TbfPolicy
from repro.lustre.ost import Ost
from repro.lustre.oss import Oss
from repro.lustre.tbf import DEFAULT_BUCKET_DEPTH, TbfRule
from repro.sim.engine import Environment

#: ``x`` has no node count: node ranks treat it as 0 nodes.  ``c``/``d``
#: and ``b``/``e`` tie, exercising the job-id tie-break.
NODES = {"a": 4, "b": 1, "c": 2, "d": 2, "e": 1}
JOBS = ("a", "b", "c", "d", "e", "x")
#: Few distinct rates, so unchanged rates (vc's skip) recur often.
RATES = (50.0, 100.0, 250.0)
DEPTH = 3.0
INTERVAL_S = 0.1


class RecordingPolicy(TbfPolicy):
    """A real TBF policy that logs every rule operation it is asked for."""

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self.calls: List[tuple] = []

    def start_rule(self, rule: TbfRule) -> None:
        self.calls.append(
            ("start", rule.name, rule.job_id, rule.rate, rule.depth, rule.rank)
        )
        super().start_rule(rule)

    def stop_rule(self, name: str) -> int:
        self.calls.append(("stop", name))
        return super().stop_rule(name)

    def change_rates(self, changes) -> None:
        # change_rate is a one-entry batch, so every re-rate passes here.
        changes = list(changes)
        for name, rate, rank in changes:
            self.calls.append(("change", name, rate, rank))
        super().change_rates(changes)


def make_oss() -> Oss:
    """One OSS whose policy already holds a rule no mechanism manages."""
    env = Environment()
    policy = RecordingPolicy(env)
    policy.start_rule(TbfRule(name="foreign_zz", job_id="zz", rate=10.0))
    policy.calls.clear()
    return Oss(env, Ost(env, "ost0", capacity_bps=1 << 30), policy)


def observed(policy: RecordingPolicy, churn) -> tuple:
    table = [
        (name, rule.job_id, rule.rate, rule.depth, rule.rank)
        for name in policy.rule_names()
        for rule in (policy.get_rule(name),)
    ]
    return list(policy.calls), table, tuple(churn)


# -- the parent writers, verbatim ---------------------------------------------


class ReferenceAdapTbf:
    """``RuleManagementDaemon`` as it was, plus the controller's and the
    handle's sweeps over its rules."""

    def __init__(
        self,
        policy: TbfPolicy,
        bucket_depth: float = DEFAULT_BUCKET_DEPTH,
        rule_prefix: str = "adaptbf_",
    ) -> None:
        self.policy = policy
        self.bucket_depth = bucket_depth
        self.rule_prefix = rule_prefix
        self.rules_created = 0
        self.rules_stopped = 0
        self.rate_changes = 0
        self._names: Dict[str, str] = {}

    def rule_name(self, job_id: str) -> str:
        return f"{self.rule_prefix}{job_id}"

    def apply(self, result: AllocationResult, interval_s: float) -> None:
        """Reconcile live rules with ``result`` (steps 5–7 of Fig. 2)."""
        policy = self.policy
        allocations = result.allocations
        ranks = self._ranks(result.per_job.values())

        # Stop rules for jobs that fell out of the active set.
        prefix = self.rule_prefix
        cut = len(prefix)
        for name in policy.rule_names():
            if name.startswith(prefix) and name[cut:] not in allocations:
                policy.stop_rule(name)
                self.rules_stopped += 1

        # Create/re-rate rules for active jobs.
        names = self._names
        for job_id, tokens in allocations.items():
            rate = tokens / interval_s
            name = names.get(job_id)
            if name is None:
                name = names[job_id] = self.rule_name(job_id)
            if policy.has_rule_for_job(job_id):
                policy.change_rate(name, rate, rank=ranks[job_id])
                self.rate_changes += 1
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
                self.rules_created += 1

    @staticmethod
    def _ranks(per_job: Iterable[JobAllocation]) -> Dict[str, int]:
        """Rank jobs by priority: highest priority → rank 0 (served first).

        Ties broken by job id for determinism.
        """
        ordered = sorted(per_job, key=lambda a: (-a.priority, a.job_id))
        return {a.job_id: rank for rank, a in enumerate(ordered)}

    # SystemStatsController, for a round with no demand at all.
    def _any_managed_rules(self) -> bool:
        prefix = self.rule_prefix
        return any(n.startswith(prefix) for n in self.policy.rule_names())

    def _stop_all_rules(self) -> None:
        prefix = self.rule_prefix
        for name in list(self.policy.rule_names()):
            if name.startswith(prefix):
                self.policy.stop_rule(name)
                self.rules_stopped += 1

    # AdapTbfHandle.teardown, less stopping the controller.
    def teardown(self) -> None:
        daemon = self
        for name in list(daemon.policy.rule_names()):
            if name.startswith(daemon.rule_prefix):
                daemon.policy.stop_rule(name)


class _ReferenceHandle:
    """State the copied pid/sdn/vc writers read off their handle."""

    RULE_PREFIX = ""

    def __init__(self, oss: Oss, nodes: Mapping[str, int]) -> None:
        self.oss = oss
        self.nodes = dict(nodes)
        self.bucket_depth = DEPTH
        self._rules_created = 0
        self._rules_stopped = 0
        self._rate_changes = 0

    def _ranks(self, rates: Mapping[str, float]) -> Dict[str, int]:
        ordered = sorted(rates, key=lambda j: (-self.nodes.get(j, 0), j))
        return {job: rank for rank, job in enumerate(ordered)}

    def teardown(self) -> None:
        policy = self.oss.policy
        for name in list(policy.rule_names()):
            if name.startswith(self.RULE_PREFIX):
                policy.stop_rule(name)

    def churn(self) -> tuple:
        return (self._rules_created, self._rules_stopped, self._rate_changes)


class ReferencePid(_ReferenceHandle):
    RULE_PREFIX = "pid_"

    def apply(self, rates: Mapping[str, float]) -> None:
        """Reconcile live ``pid_*`` rules with the decided rates."""
        policy = self.oss.policy
        ranks = self._ranks(rates)
        for name in list(policy.rule_names()):
            if not name.startswith(self.RULE_PREFIX):
                continue
            if name[len(self.RULE_PREFIX):] not in rates:
                policy.stop_rule(name)
                self._rules_stopped += 1
        for job_id, rate in rates.items():
            name = f"{self.RULE_PREFIX}{job_id}"
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


class ReferenceSdn(_ReferenceHandle):
    RULE_PREFIX = "sdn_"

    def apply(self, rates: Mapping[str, float]) -> None:
        """Reconcile live ``sdn_*`` rules with the decided rates."""
        policy = self.oss.policy
        ranks = self._ranks(rates)
        for name in list(policy.rule_names()):
            if not name.startswith(self.RULE_PREFIX):
                continue
            if name[len(self.RULE_PREFIX):] not in rates:
                policy.stop_rule(name)
                self._rules_stopped += 1
        for job_id in sorted(rates):
            rate = rates[job_id]
            name = f"{self.RULE_PREFIX}{job_id}"
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


class ReferenceVc(_ReferenceHandle):
    RULE_PREFIX = "vc_"

    def apply(self, rates: Mapping[str, float]) -> None:
        """Reconcile live ``vc_*`` rules with the circuit table."""
        policy = self.oss.policy
        ranks = self._ranks(rates)
        for name in list(policy.rule_names()):
            if not name.startswith(self.RULE_PREFIX):
                continue
            if name[len(self.RULE_PREFIX):] not in rates:
                policy.stop_rule(name)
                self._rules_stopped += 1
        for job_id in sorted(rates):
            rate = rates[job_id]
            name = f"{self.RULE_PREFIX}{job_id}"
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

    def _settle_ledger(self, new_rate: float) -> None:
        pass


# -- sequences of rate maps -----------------------------------------------------


@st.composite
def map_sequences(draw, jobs=JOBS, values=RATES) -> List[Dict[str, float]]:
    """Rounds of ``{job: value}``: jobs join and leave, a map repeats, a
    job joins or leaves alone (the others keep their rates and may only
    move rank), or the map empties."""
    maps: List[Dict[str, float]] = []
    current: Dict[str, float] = {}
    for _ in range(draw(st.integers(1, 10))):
        move = draw(st.sampled_from(("fresh", "repeat", "toggle", "empty")))
        if move == "fresh":
            chosen = draw(st.sets(st.sampled_from(jobs)))
            current = {job: draw(st.sampled_from(values)) for job in chosen}
        elif move == "toggle":
            job = draw(st.sampled_from(jobs))
            current = dict(current)
            if current.pop(job, None) is None:
                current[job] = draw(st.sampled_from(values))
        elif move == "empty":
            current = {}
        maps.append(dict(current))
    return maps


def job_sorted(rates: Mapping[str, float]) -> Dict[str, float]:
    return {job: rates[job] for job in sorted(rates)}


def reversed_order(rates: Mapping[str, float]) -> Dict[str, float]:
    return {job: rates[job] for job in sorted(rates, reverse=True)}


def allocation(tokens: Mapping[str, float]) -> AllocationResult:
    """What the allocator hands the daemon: priority ``p_x = n_x / Σn``."""
    total_nodes = sum(NODES[job] for job in tokens)
    per_job = {
        job: JobAllocation(
            job, NODES[job] / total_nodes, 0, 0.0, 0, 0, 0, 0, 0, 0,
            int(tokens[job]), 0, 0,
        )
        for job in tokens
    }
    return AllocationResult(
        allocations={job: int(tokens[job]) for job in tokens},
        per_job=per_job,
        total_tokens=int(sum(tokens.values())),
        surplus_pool=0,
        reclaimed_pool=0,
    )


# -- the differential checks ------------------------------------------------------


@given(map_sequences(jobs=tuple(NODES)))
@settings(max_examples=150, deadline=None)
def test_adaptbf_reconciles_like_the_parent_daemon(maps):
    ref_policy = make_oss().policy
    new_policy = make_oss().policy
    reference = ReferenceAdapTbf(ref_policy, bucket_depth=DEPTH)
    daemon = RuleManagementDaemon(new_policy, bucket_depth=DEPTH)

    def churn(d):
        return (d.rules_created, d.rules_stopped, d.rate_changes)

    for tokens in maps:
        # The controller's round: apply an allocation, or stop every
        # managed rule when no job has demand.
        if tokens:
            reference.apply(allocation(job_sorted(tokens)), INTERVAL_S)
            daemon.apply(allocation(reversed_order(tokens)), INTERVAL_S)
        else:
            if reference._any_managed_rules():
                reference._stop_all_rules()
            daemon.reconcile({}, {})
        assert observed(new_policy, churn(daemon)) == observed(
            ref_policy, churn(reference)
        )
    reference.teardown()
    daemon.teardown()
    assert observed(new_policy, churn(daemon)) == observed(
        ref_policy, churn(reference)
    )


class _Controller:
    """The one thing an SDN agent's teardown asks of its controller."""

    def unregister(self, agent) -> None:
        pass


def _pid(oss: Oss) -> PidRateController:
    return PidRateController(
        PidRateMechanism(), oss, 0, NODES, max_token_rate=1000.0, bucket_depth=DEPTH
    )


def _sdn(oss: Oss) -> SdnOstAgent:
    return SdnOstAgent(
        SdnControllerMechanism(),
        oss,
        0,
        _Controller(),  # type: ignore[arg-type]
        NODES,
        max_token_rate=1000.0,
        bucket_depth=DEPTH,
        rpc_size=1 << 20,
    )


def _vc(oss: Oss) -> VirtualCircuitTable:
    return VirtualCircuitTable(
        VirtualCircuitMechanism(),
        oss,
        0,
        oss.env,
        NODES,
        max_token_rate=1000.0,
        bucket_depth=DEPTH,
        rpc_size=1 << 20,
    )


def _check_handle(reference_cls, make_handle, maps) -> None:
    ref_oss, new_oss = make_oss(), make_oss()
    reference = reference_cls(ref_oss, NODES)
    handle = make_handle(new_oss)

    def churn(h):
        return (h.rules_created, h.rules_stopped, h.rate_changes)

    for rates in maps:
        reference.apply(job_sorted(rates))
        handle.apply(reversed_order(rates))
        assert observed(new_oss.policy, churn(handle)) == observed(
            ref_oss.policy, reference.churn()
        )
    reference.teardown()
    handle.teardown()
    assert observed(new_oss.policy, churn(handle)) == observed(
        ref_oss.policy, reference.churn()
    )


@given(map_sequences())
@settings(max_examples=150, deadline=None)
def test_pid_reconciles_like_its_parent_writer(maps):
    _check_handle(ReferencePid, _pid, maps)


@given(map_sequences())
@settings(max_examples=150, deadline=None)
def test_sdn_reconciles_like_its_parent_writer(maps):
    _check_handle(ReferenceSdn, _sdn, maps)


@given(map_sequences())
@settings(max_examples=150, deadline=None)
def test_vc_reconciles_like_its_parent_writer(maps):
    _check_handle(ReferenceVc, _vc, maps)


# -- rules changed behind the daemon's back -----------------------------------


def _adaptbf_pair():
    ref_policy = make_oss().policy
    new_policy = make_oss().policy
    reference = ReferenceAdapTbf(ref_policy, bucket_depth=DEPTH)
    daemon = RuleManagementDaemon(new_policy, bucket_depth=DEPTH)
    return ref_policy, reference, new_policy, daemon


def _adaptbf_round(writer, tokens, parent: bool) -> None:
    """The controller's round, as in the differential test above."""
    if tokens:
        order = job_sorted if parent else reversed_order
        writer.apply(allocation(order(tokens)), INTERVAL_S)
    elif parent:
        if writer._any_managed_rules():
            writer._stop_all_rules()
    else:
        writer.reconcile({}, {})


def _churn(writer) -> tuple:
    return (writer.rules_created, writer.rules_stopped, writer.rate_changes)


def test_adaptbf_restarts_a_rule_stopped_behind_its_back():
    ref_policy, reference, new_policy, daemon = _adaptbf_pair()
    tokens = {"a": 5, "b": 3, "c": 2}
    for policy, writer, parent in (
        (ref_policy, reference, True),
        (new_policy, daemon, False),
    ):
        _adaptbf_round(writer, tokens, parent)
        policy.stop_rule("adaptbf_b")
        _adaptbf_round(writer, tokens, parent)
    assert ("start", "adaptbf_b", "b", 30.0, DEPTH, 2) in new_policy.calls[-3:]
    assert observed(new_policy, _churn(daemon)) == observed(
        ref_policy, _churn(reference)
    )


@given(map_sequences(jobs=tuple(NODES)), st.data())
@settings(max_examples=150, deadline=None)
def test_adaptbf_meets_rules_changed_behind_its_back_like_the_parent(maps, data):
    """Before each round a managed rule may be stopped, or one started,
    outside the daemon; the daemon must answer as the parent's rescan did."""
    ref_policy, reference, new_policy, daemon = _adaptbf_pair()
    for tokens in maps:
        meddle = data.draw(st.sampled_from(("none", "stop", "start")))
        job = data.draw(st.sampled_from(tuple(NODES)))
        name = f"adaptbf_{job}"
        for policy in (ref_policy, new_policy):
            if meddle == "stop" and name in policy.rule_names():
                policy.stop_rule(name)
            elif meddle == "start" and name not in policy.rule_names():
                policy.start_rule(TbfRule(name=name, job_id=job, rate=7.0))
        _adaptbf_round(reference, tokens, parent=True)
        _adaptbf_round(daemon, tokens, parent=False)
        assert observed(new_policy, _churn(daemon)) == observed(
            ref_policy, _churn(reference)
        )


@given(
    st.lists(
        st.dictionaries(st.sampled_from(tuple(NODES)), st.integers(1, 400)),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_adaptbf_applies_the_allocators_own_results_like_the_parent(rounds):
    """The allocator hands ``apply`` a :class:`JobTrace`, which the daemon
    ranks from its columns without building a ``JobAllocation``; the parent
    writer, reading the built trace, must make the same calls."""
    ref_policy, reference, new_policy, daemon = _adaptbf_pair()
    algorithm = TokenAllocationAlgorithm()
    for demands in rounds:
        if demands:
            result = algorithm.allocate(
                AllocationInput(
                    interval_s=INTERVAL_S,
                    max_token_rate=1000.0,
                    demands=demands,
                    nodes=NODES,
                )
            )
            assert isinstance(result.per_job, JobTrace)
            with mock.patch.object(
                JobAllocation, "_make", side_effect=AssertionError("trace built")
            ):
                daemon.apply(result, INTERVAL_S)
            reference.apply(result, INTERVAL_S)
        else:
            _adaptbf_round(reference, {}, parent=True)
            _adaptbf_round(daemon, {}, parent=False)
        assert observed(new_policy, _churn(daemon)) == observed(
            ref_policy, _churn(reference)
        )


def test_a_job_under_a_foreign_rule_is_left_to_it():
    """A job that already has a rule under another prefix (hand-installed,
    static) keeps it: the daemon neither starts nor re-rates a rule for it
    and counts no churn (starting one raises ``job 'a' already has a rule``,
    which would end the controller process); once that rule is stopped, the
    next round starts the managed one."""
    policy = RecordingPolicy(Environment())
    policy.start_rule(TbfRule(name="static_a", job_id="a", rate=100.0))
    policy.calls.clear()
    daemon = RuleManagementDaemon(policy, bucket_depth=DEPTH)
    for _ in range(2):
        daemon.reconcile({"a": 50.0}, {"a": 0})
    assert policy.rule_names() == ["static_a"]
    assert policy.get_rule("static_a").rate == 100.0
    assert policy.calls == []
    assert _churn(daemon) == (0, 0, 0)

    policy.stop_rule("static_a")
    daemon.reconcile({"a": 50.0}, {"a": 0})
    assert policy.rule_names() == ["adaptbf_a"]
    assert policy.calls[-1] == ("start", "adaptbf_a", "a", 50.0, DEPTH, 0)
    assert _churn(daemon) == (1, 0, 0)


def test_a_foreign_rule_leaves_the_other_jobs_managed():
    """Only the foreign-ruled job is skipped; the rest of the round starts,
    re-rates and stops managed rules as usual."""
    policy = RecordingPolicy(Environment())
    policy.start_rule(TbfRule(name="static_b", job_id="b", rate=100.0))
    daemon = RuleManagementDaemon(policy, bucket_depth=DEPTH)
    daemon.reconcile({"a": 50.0, "b": 50.0, "c": 250.0}, {"a": 1, "b": 2, "c": 0})
    daemon.reconcile({"a": 100.0, "b": 50.0}, {"a": 0, "b": 1})
    assert policy.rule_names() == ["adaptbf_a", "static_b"]
    assert policy.get_rule("adaptbf_a").rate == 100.0
    assert policy.get_rule("static_b").rate == 100.0
    assert _churn(daemon) == (2, 1, 1)
