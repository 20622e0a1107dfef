"""TBF rules: the JobID → token-rate entries of Lustre's NRS-TBF.

A :class:`TbfRule` is what the Rule Management Daemon starts, re-rates and
stops on an OST's :class:`~repro.lustre.nrs.TbfPolicy` (paper §II-A,
§III-D), which holds the rule table, the per-rule queues and token buckets,
the deadline heap and the fallback queue.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TbfRule", "DEFAULT_BUCKET_DEPTH"]

#: Lustre's default TBF bucket depth (paper §II-A: "e.g., 3 tokens by default").
DEFAULT_BUCKET_DEPTH = 3.0


@dataclass(slots=True)
class TbfRule:
    """One TBF rule: JobID → token rate.

    Parameters
    ----------
    name:
        Rule name, unique within a policy (Lustre rule identifier).
    job_id:
        Exact JobID this rule classifies.  AdapTBF uses JobID classification
        (§III-D), so exact match is all the reproduction needs; a fallback
        queue covers everything else.
    rate:
        Token rate in tokens/second (1 token = 1 RPC).
    depth:
        Bucket depth (burst allowance).
    rank:
        Hierarchy position; *lower rank wins ties* when two queues' deadlines
        coincide.  The rule daemon sets rank from job priority.
    """

    name: str
    job_id: str
    rate: float
    depth: float = DEFAULT_BUCKET_DEPTH
    rank: int = 0

    def __post_init__(self) -> None:
        # Negated so that NaN, which fails every comparison, is rejected too.
        if not self.rate >= 0:
            raise ValueError(f"rule rate must be >= 0, got {self.rate}")
        if not self.depth > 0:
            raise ValueError(f"rule depth must be > 0, got {self.depth}")
