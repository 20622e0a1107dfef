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

from typing import Dict, Iterable, Mapping

from repro.core.types import AllocationResult, JobAllocation
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
        self._names: Dict[str, str] = {}

    def apply(self, result: AllocationResult, interval_s: float) -> None:
        """Reconcile live rules with ``result`` (steps 5–7 of Fig. 2)."""
        self.reconcile(
            {
                job_id: tokens / interval_s
                for job_id, tokens in result.allocations.items()
            },
            self._ranks(result.per_job.values()),
        )

    def reconcile(
        self, rates: Mapping[str, float], ranks: Mapping[str, int]
    ) -> None:
        """Make the managed rules match ``rates`` (tokens/s) and ``ranks``.

        Stops every managed rule whose job is missing from ``rates``, then
        re-rates or starts the rest in job-id order.  ``reconcile({}, {})``
        stops every managed rule.
        """
        policy = self.policy
        prefix = self.rule_prefix
        cut = len(prefix)
        for name in policy.rule_names():
            if name.startswith(prefix) and name[cut:] not in rates:
                policy.stop_rule(name)
                self.rules_stopped += 1

        names = self._names
        for job_id in sorted(rates):
            rate = rates[job_id]
            rank = ranks[job_id]
            name = names.get(job_id)
            if name is None:
                name = names[job_id] = f"{prefix}{job_id}"
            if policy.has_rule_for_job(job_id):
                if self._skip_unchanged:
                    rule = policy.get_rule(name)
                    if rule.rate == rate and rule.rank == rank:
                        continue
                policy.change_rate(name, rate, rank=rank)
                self.rate_changes += 1
            else:
                policy.start_rule(
                    TbfRule(
                        name=name,
                        job_id=job_id,
                        rate=rate,
                        depth=self.bucket_depth,
                        rank=rank,
                    )
                )
                self.rules_created += 1

    def teardown(self) -> None:
        """Stop every managed rule without counting it as churn."""
        policy = self.policy
        prefix = self.rule_prefix
        for name in policy.rule_names():
            if name.startswith(prefix):
                policy.stop_rule(name)

    @staticmethod
    def _ranks(per_job: Iterable[JobAllocation]) -> Dict[str, int]:
        """Rank jobs by priority: highest priority → rank 0 (served first).

        Ties broken by job id for determinism.
        """
        ordered = sorted(per_job, key=lambda a: (-a.priority, a.job_id))
        return {a.job_id: rank for rank, a in enumerate(ordered)}
