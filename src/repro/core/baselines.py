"""Evaluation baselines (paper §IV-C).

* **No BW** — no bandwidth control at all: build the OSS with a
  :class:`~repro.lustre.nrs.FifoPolicy`; there is nothing to configure here.
* **Static BW** — TBF rules installed once, rates proportional to each job's
  share of *total system* compute nodes, never adapted afterwards.  This is
  the "strict proportional limit" whose inefficiency motivates the paper.

:class:`StaticBwAllocator` also exposes the static scheme through the same
allocator interface as :class:`~repro.core.allocation.TokenAllocationAlgorithm`
so experiment code can treat mechanisms uniformly.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.types import AllocationInput, AllocationResult, JobAllocation
from repro.lustre.nrs import TbfPolicy
from repro.lustre.tbf import DEFAULT_BUCKET_DEPTH, TbfRule

__all__ = ["install_static_rules", "StaticBwAllocator"]


def install_static_rules(
    policy: TbfPolicy,
    nodes: Mapping[str, int],
    max_token_rate: float,
    bucket_depth: float = DEFAULT_BUCKET_DEPTH,
    rule_prefix: str = "static_",
) -> Dict[str, float]:
    """Install one fixed-rate rule per job; returns ``{job → rate}``.

    Rates are ``T_i · n_x / Σn`` over **all** jobs in ``nodes`` (the paper's
    "proportion of allocated resources relative to the total resources
    available in the system"), independent of which jobs are active.
    """
    if max_token_rate <= 0:
        raise ValueError(f"max_token_rate must be positive, got {max_token_rate}")
    if not nodes:
        raise ValueError("nodes must not be empty")
    total = sum(nodes.values())
    if total <= 0:
        raise ValueError("total nodes must be positive")
    rates: Dict[str, float] = {}
    ordered = sorted(nodes, key=lambda j: (-nodes[j], j))
    rank_of = {job: rank for rank, job in enumerate(ordered)}
    for job, n in nodes.items():
        if n <= 0:
            raise ValueError(f"job {job!r}: nodes must be positive")
        rate = max_token_rate * n / total
        rates[job] = rate
        policy.start_rule(
            TbfRule(
                name=f"{rule_prefix}{job}",
                job_id=job,
                rate=rate,
                depth=bucket_depth,
                rank=rank_of[job],
            )
        )
    return rates


class StaticBwAllocator:
    """The static scheme behind the allocator interface (for harness reuse).

    ``allocate`` always returns the same node-proportional split of the token
    budget, ignoring demand — which is exactly why Static BW wastes tokens on
    idle jobs and cannot absorb bursts.
    """

    def __init__(self, nodes: Mapping[str, int]) -> None:
        if not nodes:
            raise ValueError("nodes must not be empty")
        self.nodes = dict(nodes)
        self._total_nodes = sum(nodes.values())

    def allocate(self, inputs: AllocationInput) -> AllocationResult:
        total = inputs.total_tokens
        allocations: Dict[str, int] = {}
        per_job: Dict[str, JobAllocation] = {}
        for job, n in self.nodes.items():
            share = n / self._total_nodes
            tokens = int(total * share)
            demand = int(inputs.demands.get(job, 0))
            allocations[job] = tokens
            # Mirror TokenAllocationAlgorithm.allocate's Eq. 3 fallback chain
            # (DESIGN.md §1): a zero-token grant falls back to 1 token, so a
            # job with positive demand reports a finite deficit (u > 0)
            # instead of masquerading as idle with u = 0.
            per_job[job] = JobAllocation(
                job_id=job,
                priority=share,
                demand=demand,
                utilization=demand / tokens if tokens > 0 else float(demand),
                initial=tokens,
                surplus=0,
                redistribution_share=0,
                after_redistribution=tokens,
                reclaimed=0,
                recompensation_share=0,
                final=tokens,
                record_before=0,
                record_after=0,
            )
        return AllocationResult(
            allocations=allocations,
            per_job=per_job,
            total_tokens=total,
            surplus_pool=0,
            reclaimed_pool=0,
        )
