"""Rule Management Daemon (paper §III-D).

Translates an allocation round into live TBF rules on the OSS:

* stops rules of jobs that were not active this period (their queued RPCs
  drain through the fallback queue, so nothing starves);
* creates rules for newly active jobs and re-rates existing ones;
* establishes the rule *hierarchy*: ranks follow job priority so that when
  several queues' token deadlines coincide, idle I/O threads pick the
  higher-priority job's queue first.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.core.types import AllocationResult, JobAllocation
from repro.lustre.nrs import TbfPolicy
from repro.lustre.tbf import DEFAULT_BUCKET_DEPTH, TbfRule

__all__ = ["RuleManagementDaemon"]


class RuleManagementDaemon:
    """Applies allocation results to a :class:`~repro.lustre.nrs.TbfPolicy`.

    Parameters
    ----------
    policy:
        The TBF policy of the OSS serving this OST.
    bucket_depth:
        Depth for newly created rules (burst allowance).
    rule_prefix:
        Rule-name prefix; rules are named ``{prefix}{job_id}``.
    """

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
