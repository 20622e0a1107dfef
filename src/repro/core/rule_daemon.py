"""Rule Management Daemon (paper §III-D): the one TBF rule reconciler.

Translates decided rates into live TBF rules on the OSS:

* stops rules of jobs that were not active this period (their queued RPCs
  drain through the fallback queue, so nothing starves);
* creates rules for newly active jobs and re-rates existing ones;
* establishes the rule *hierarchy*: ranks follow job priority so that when
  several queues' token deadlines coincide, idle I/O threads pick the
  higher-priority job's queue first.

Every rule-managing mechanism drives its rules through one daemon: AdapTBF
through :meth:`RuleManagementDaemon.apply`, the other contenders through
:meth:`RuleManagementDaemon.reconcile` with :func:`node_ranks`.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.types import AllocationResult, JobTrace
from repro.lustre.nrs import TbfPolicy
from repro.lustre.tbf import DEFAULT_BUCKET_DEPTH, TbfRule

__all__ = ["RuleManagementDaemon", "node_ranks"]


def node_ranks(jobs: Iterable[str], nodes: Mapping[str, int]) -> Dict[str, int]:
    """Rank jobs by node count: most nodes → rank 0 (served first).

    Jobs missing from ``nodes`` count as 0 nodes; ties are broken by job id
    for determinism.
    """
    ordered = sorted(jobs, key=lambda j: (-nodes.get(j, 0), j))
    return {job: rank for rank, job in enumerate(ordered)}


class RuleManagementDaemon:
    """Reconciles the ``{prefix}{job_id}`` rules of a :class:`TbfPolicy`.

    Parameters
    ----------
    policy:
        The TBF policy of the OSS serving this OST.
    bucket_depth:
        Depth for newly created rules (burst allowance).
    rule_prefix:
        Rule-name prefix; rules are named ``{prefix}{job_id}``.  Rules
        without it belong to someone else and are never touched.
    skip_unchanged:
        Leave a live rule alone when neither its rate nor its rank moved,
        so ``rate_changes`` counts only real changes (virtual circuits);
        otherwise every surviving rule is re-rated each round.

    ``rules_created``, ``rules_stopped`` and ``rate_changes`` count the
    rule churn of :meth:`reconcile`; :meth:`teardown` is not churn.

    A round decides stop, re-rate or start from the daemon's own table of
    its live rules, so it neither lists nor sorts the policy's rule table
    and asks the policy nothing per job.  The table is re-read from the
    policy only when the policy's ``rules_version`` shows that a rule
    was started or stopped since the daemon's last write, so a managed
    rule stopped behind the daemon's back is started again, and one
    started behind its back is re-rated or stopped, as by a full rescan.
    """

    def __init__(
        self,
        policy: TbfPolicy,
        bucket_depth: float = DEFAULT_BUCKET_DEPTH,
        rule_prefix: str = "adaptbf_",
        skip_unchanged: bool = False,
    ) -> None:
        self.policy = policy
        self.bucket_depth = bucket_depth
        self.rule_prefix = rule_prefix
        self.rules_created = 0
        self.rules_stopped = 0
        self.rate_changes = 0
        self._skip_unchanged = skip_unchanged
        # job id → its live managed rule, valid while the policy's
        # rules_version equals _version (None: never read).
        self._live: Dict[str, TbfRule] = {}
        self._version: Optional[int] = None

    def apply(self, result: AllocationResult, interval_s: float) -> None:
        """Reconcile live rules with ``result`` (steps 5–7 of Fig. 2).

        Rates are ``tokens / interval_s``; ranks follow job priority, the
        highest first (rank 0, served first), ties broken by job id.  The
        allocator's :class:`JobTrace` is ranked from its job and priority
        columns, so ranking builds no :class:`JobAllocation`.
        """
        allocations = result.allocations
        per_job = result.per_job
        if isinstance(per_job, JobTrace):
            jobs, priority = per_job.columns[0], per_job.columns[1]
        else:
            jobs = sorted(per_job)
            priority = [per_job[job].priority for job in jobs]
        # Both list the jobs in job-id order, and a reversed sort is
        # stable, so equal priorities keep job-id order.
        ranks = [0] * len(jobs)
        for rank, i in enumerate(
            sorted(range(len(jobs)), key=priority.__getitem__, reverse=True)
        ):
            ranks[i] = rank
        self._reconcile(
            allocations,
            zip(jobs, [allocations[job] / interval_s for job in jobs], ranks),
        )

    def reconcile(
        self, rates: Mapping[str, float], ranks: Mapping[str, int]
    ) -> None:
        """Make the managed rules match ``rates`` (tokens/s) and ``ranks``.

        Stops every managed rule whose job is missing from ``rates`` in
        rule-name order, then re-rates or starts the rest in job-id order.
        Consecutive re-rates reach the policy as one
        :meth:`~repro.lustre.nrs.TbfPolicy.change_rates` batch, which wakes
        the OSS once; a pending batch is handed over before each start, so
        the policy still sees one operation per job in job-id order.
        A job that already has a rule under another name keeps it: it gets
        no managed rule and counts no churn until that rule is stopped.
        ``reconcile({}, {})`` stops every managed rule.
        """
        self._reconcile(
            rates,
            [(job_id, rates[job_id], ranks[job_id]) for job_id in sorted(rates)],
        )

    def _reconcile(
        self, active: Container[str], targets: Iterable[Tuple[str, float, int]]
    ) -> None:
        """:meth:`reconcile` for the jobs in ``active``, given as
        ``(job_id, rate, rank)`` targets in job-id order."""
        policy = self.policy
        if policy.rules_version != self._version:
            self._read_live()
        live = self._live
        stale = [job_id for job_id in live if job_id not in active]
        if stale:
            # One prefix: job-id order is rule-name order.
            stale.sort()
            for job_id in stale:
                policy.stop_rule(live.pop(job_id).name)
                self.rules_stopped += 1

        skip_unchanged = self._skip_unchanged
        changes: List[Tuple[str, float, int]] = []
        for job_id, rate, rank in targets:
            rule = live.get(job_id)
            if rule is not None:
                if skip_unchanged and rule.rate == rate and rule.rank == rank:
                    continue
                changes.append((rule.name, rate, rank))
            elif policy.has_rule_for_job(job_id):
                # Ruled under another name (hand-installed, static): left
                # to that rule, and started here once it is gone.
                continue
            else:
                if changes:
                    policy.change_rates(changes)
                    self.rate_changes += len(changes)
                    changes = []
                rule = TbfRule(
                    f"{self.rule_prefix}{job_id}",
                    job_id,
                    rate,
                    self.bucket_depth,
                    rank,
                )
                policy.start_rule(rule)
                live[job_id] = rule
                self.rules_created += 1
        if changes:
            policy.change_rates(changes)
            self.rate_changes += len(changes)
        self._version = policy.rules_version

    def teardown(self) -> None:
        """Stop every managed rule without counting it as churn."""
        policy = self.policy
        prefix = self.rule_prefix
        for name in policy.rule_names():
            if name.startswith(prefix):
                policy.stop_rule(name)

    def _read_live(self) -> None:
        """Re-read the table of live managed rules from the policy."""
        policy = self.policy
        prefix = self.rule_prefix
        cut = len(prefix)
        self._live = {
            name[cut:]: policy.get_rule(name)
            for name in policy.rule_names()
            if name.startswith(prefix)
        }
