"""Shared types and notation for the AdapTBF core.

The names follow Table I of the paper:

=============  =================================================================
Notation       Meaning
=============  =================================================================
``S_i``        Object Storage Target *i* (one allocator instance per OST)
``T_i``        Maximum token rate (tokens/s) of ``S_i``
``Δt``         Observation period (``interval_s``)
``J^Δt_i``     Active jobs on ``S_i`` during the period (issued ≥ 1 RPC)
``n_x``        Compute nodes allocated to job *x*
``p_x``        Priority of job *x* (node share among active jobs, Eq. 1)
``r_x``        Record of job *x* (+ lent / − borrowed)
``d_x``        Observed I/O demand of *x* (RPCs issued during the period)
``u_x``        Utilization score ``d_x / α^{t-1}_x`` (Eq. 3)
``α_x``        Allocated tokens of *x* for the next period
``ρ_x``        Fractional-token remainder of *x* (Eq. 22)
=============  =================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, NamedTuple

__all__ = [
    "JobInfo",
    "AllocationInput",
    "JobAllocation",
    "AllocationResult",
    "AllocationRound",
]


@dataclass(frozen=True)
class JobInfo:
    """Static description of one job as the scheduler knows it.

    Parameters
    ----------
    job_id:
        Lustre JobID (the TBF classification key).
    nodes:
        Compute nodes allocated to the job — the paper's ``n_x``, the sole
        input to priority.
    """

    job_id: str
    nodes: int

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ValueError(
                f"job {self.job_id!r}: nodes must be positive, got {self.nodes}"
            )


@dataclass(frozen=True)
class AllocationInput:
    """Everything one allocation round consumes — local to one OST.

    Parameters
    ----------
    interval_s:
        Observation period ``Δt`` in seconds.
    max_token_rate:
        ``T_i`` in tokens/second.
    demands:
        ``{job_id: d_x}`` — RPCs issued during the elapsed period.  The key
        set *is* the active-job set ``J^Δt_i``.
    nodes:
        ``{job_id: n_x}`` for (at least) every active job.
    """

    interval_s: float
    max_token_rate: float
    demands: Mapping[str, int]
    nodes: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError(f"interval must be positive, got {self.interval_s}")
        if self.max_token_rate <= 0:
            raise ValueError(
                f"max_token_rate must be positive, got {self.max_token_rate}"
            )
        for job, demand in self.demands.items():
            if demand <= 0:
                raise ValueError(
                    f"job {job!r}: active jobs must have positive demand, "
                    f"got {demand} (inactive jobs are simply omitted)"
                )
        missing = [job for job in self.demands if job not in self.nodes]
        if missing:
            raise ValueError(f"nodes unknown for active jobs: {sorted(missing)}")
        for job in self.demands:
            if self.nodes[job] <= 0:
                raise ValueError(f"job {job!r}: nodes must be positive")

    @property
    def total_tokens(self) -> int:
        """Integer token budget for the next period: ``⌊T_i · Δt⌋``."""
        return int(self.max_token_rate * self.interval_s + 1e-9)


class JobAllocation(NamedTuple):
    """Full per-job trace of one allocation round (for analysis/tests).

    An immutable record, built positionally once per job per round: a
    named tuple costs a fraction of a frozen dataclass to construct.
    """

    job_id: str
    priority: float  # p_x
    demand: int  # d_x
    utilization: float  # u_x
    initial: int  # α_x after priority allocation
    surplus: int  # T^x_s handed to the pool
    redistribution_share: int  # tokens received from the surplus pool
    after_redistribution: int  # α_x,RD
    reclaimed: int  # T^x_R taken from this job (J− only)
    recompensation_share: int  # tokens received back (J+ only)
    final: int  # α_x,RC — what the rule daemon applies
    record_before: int  # r_x at the start of the round
    record_after: int  # r_x,RC at the end of the round


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of one allocation round."""

    allocations: Dict[str, int]  # job → final tokens for the next Δt
    per_job: Dict[str, JobAllocation]
    total_tokens: int  # the budget that was distributed
    surplus_pool: int  # T_s
    reclaimed_pool: int  # T_R

    def rate_for(self, job_id: str, interval_s: float) -> float:
        """Token rate (tokens/s) to program into the job's TBF rule."""
        return self.allocations[job_id] / interval_s


@dataclass
class AllocationRound:
    """One controller iteration, as kept in the framework history.

    ``records`` is a snapshot of the ledger *after* the round, which is what
    paper Fig. 7 plots over time.
    """

    time: float
    demands: Dict[str, int]
    result: AllocationResult
    records: Dict[str, int] = field(default_factory=dict)
