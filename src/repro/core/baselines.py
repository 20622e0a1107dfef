"""Evaluation baselines (paper §IV-C).

* **No BW** — no bandwidth control at all: build the OSS with a
  :class:`~repro.lustre.nrs.FifoPolicy`; there is nothing to configure here.
* **Static BW** — TBF rules installed once, rates proportional to each job's
  share of *total system* compute nodes, never adapted afterwards.  This is
  the "strict proportional limit" whose inefficiency motivates the paper.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.rule_daemon import node_ranks
from repro.lustre.nrs import TbfPolicy
from repro.lustre.tbf import DEFAULT_BUCKET_DEPTH, TbfRule

__all__ = ["install_static_rules"]


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
    total = sum(nodes.values())  # repro: allow[no-float-sum] reason=integer node counts
    if total <= 0:
        raise ValueError("total nodes must be positive")
    rates: Dict[str, float] = {}
    rank_of = node_ranks(nodes, nodes)
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

