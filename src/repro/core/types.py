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

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, NamedTuple, Optional, Sequence

from repro.numeric import is_count

__all__ = [
    "JobInfo",
    "AllocationInput",
    "JobAllocation",
    "JobTrace",
    "AllocationResult",
    "AllocationGrants",
    "AllocationRound",
]

_INF = math.inf


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
        if not is_count(self.nodes):
            raise ValueError(
                f"job {self.job_id!r}: nodes must be an int >= 1, "
                f"got {self.nodes!r}"
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
        # Negated comparisons, so that NaN, which fails every comparison, is
        # rejected too; an infinite field would reach ``int()`` in the
        # allocator as an ``OverflowError`` (or a NaN priority).
        interval_s, max_token_rate = self.interval_s, self.max_token_rate
        if not 0 < interval_s < _INF:
            raise ValueError(
                f"interval_s must be a finite positive number, got {interval_s}"
            )
        if not 0 < max_token_rate < _INF:
            raise ValueError(
                "max_token_rate must be a finite positive number, "
                f"got {max_token_rate}"
            )
        if not max_token_rate * interval_s < _INF:
            raise ValueError(
                f"max_token_rate * interval_s is too large: {max_token_rate} "
                f"tokens/s over {interval_s} s is not a finite budget"
            )
        # One pass over the demands; an unknown job and a bad node count
        # are reported after it, so a bad demand is reported first.
        nodes = self.nodes
        count_of = nodes.get
        inf = _INF
        missing = []
        bad_nodes = None
        for job, demand in self.demands.items():
            if not 0 < demand < inf:
                raise ValueError(
                    f"job {job!r}: active jobs must have a finite positive "
                    f"demand, got {demand} (inactive jobs are simply omitted)"
                )
            if not 0 < count_of(job, 0) < inf:
                if job not in nodes:
                    missing.append(job)
                elif bad_nodes is None:
                    bad_nodes = job
        if missing:
            raise ValueError(f"nodes unknown for active jobs: {sorted(missing)}")
        if bad_nodes is not None:
            raise ValueError(
                f"job {bad_nodes!r}: nodes must be a finite positive number, "
                f"got {nodes[bad_nodes]}"
            )

    @property
    def total_tokens(self) -> int:
        """Integer token budget for the next period: ``⌊T_i · Δt⌋``."""
        return int(self.max_token_rate * self.interval_s + 1e-9)


class JobAllocation(NamedTuple):
    """Full per-job trace of one allocation round (for analysis/tests).

    An immutable record, built positionally once per job when a round's
    :class:`JobTrace` is first looked up: a named tuple costs a fraction of
    a frozen dataclass to construct.
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


class JobTrace(Mapping[str, JobAllocation]):
    """A round's per-job trace, kept as the allocator's columns.

    ``columns`` holds :class:`JobAllocation`'s fields in field order, each
    an index-aligned list over the active jobs in sorted job order; the
    lists must not change afterwards.  Iteration and ``len`` read the job
    column; the first lookup builds the :class:`JobAllocation` records, so
    a round whose trace nobody reads builds none.  As a mapping it equals a
    dict with the same items.
    """

    __slots__ = ("columns", "_trace")

    def __init__(self, columns: Sequence[Sequence[Any]]) -> None:
        self.columns = columns
        self._trace: Optional[Dict[str, JobAllocation]] = None

    def _built(self) -> Dict[str, JobAllocation]:
        trace = self._trace
        if trace is None:
            columns = self.columns
            trace = self._trace = dict(
                zip(columns[0], map(JobAllocation._make, zip(*columns)))
            )
        return trace

    def __getitem__(self, job_id: str) -> JobAllocation:
        return self._built()[job_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self.columns[0])

    def __len__(self) -> int:
        return len(self.columns[0])

    def __repr__(self) -> str:
        return repr(self._built())


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of one allocation round.

    ``per_job`` is the round's full trace in job order; the allocator hands
    it over as a :class:`JobTrace`, which builds its records on first read.
    """

    allocations: Dict[str, int]  # job → final tokens for the next Δt
    per_job: Mapping[str, JobAllocation]
    total_tokens: int  # the budget that was distributed
    surplus_pool: int  # T_s
    reclaimed_pool: int  # T_R


class AllocationGrants(NamedTuple):
    """What a kept round retains of its :class:`AllocationResult`.

    The grants and pool sizes, without the per-job trace (``per_job``): a
    kept round costs one small dict, not one :class:`JobAllocation` per
    active job.
    """

    allocations: Dict[str, int]  # job → final tokens for the next Δt
    total_tokens: int  # the budget that was distributed
    surplus_pool: int  # T_s
    reclaimed_pool: int  # T_R


@dataclass
class AllocationRound:
    """One controller iteration, as kept in the framework history.

    ``result`` holds the round's grants (:class:`AllocationGrants`), not its
    per-job trace.  ``records`` is a snapshot of the ledger *after* the
    round, which is what paper Fig. 7 plots over time.  Consecutive rounds
    share one snapshot while the ledger is unchanged, so it is read-only.
    """

    time: float
    demands: Dict[str, int]
    result: AllocationGrants
    records: Dict[str, int] = field(default_factory=dict)
