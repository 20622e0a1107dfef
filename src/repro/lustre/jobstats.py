"""Per-OST job statistics tracker (Lustre ``job_stats`` analogue).

AdapTBF's System Stats Controller reads this tracker every observation
period to learn (a) which jobs were *active* and (b) each job's I/O demand
``d_x`` in RPCs (paper Eq. 3 context, §III-B).  After an allocation round the
controller *clears* the period counters so the next period starts fresh,
mirroring steps (1) and (9) of Fig. 2.

Two counters are kept per job and period:

* ``arrived`` — RPCs issued to the OST during the period;
* ``served``  — RPCs whose service completed during the period (this is what
  Lustre's real ``job_stats`` op counters reflect).

Across periods the tracker keeps each job's *outstanding* count, issued
minus served (queued in the NRS or in OST service), updated per RPC.  Only
jobs with a nonzero count have an entry.

:meth:`JobStatsTracker.demands` is the demand signal every mechanism
observes: ``served this period + outstanding now``, which equals ``backlog
at period start + arrivals``.  Every RPC that *wanted* service this period
counts exactly once, so a job whose requests are stuck waiting for tokens
stays visibly active.  Counting pure arrivals would mark a fully-backlogged
job idle, churn its rule and let its backlog drain unthrottled through the
fallback queue (DESIGN.md deviation 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.lustre.rpc import Rpc

__all__ = ["JobStatsTracker", "JobStatsSnapshot"]


@dataclass(frozen=True, slots=True)
class JobStatsSnapshot:
    """Immutable per-job counters for one observation period."""

    job_id: str
    arrived: int
    served: int

    def __post_init__(self) -> None:
        if min(self.arrived, self.served) < 0:
            raise ValueError("counters must be non-negative")


class JobStatsTracker:
    """Accumulates per-job counters between controller sweeps."""

    __slots__ = ("_arrived", "_served", "_outstanding")

    def __init__(self) -> None:
        self._arrived: Dict[str, int] = {}
        self._served: Dict[str, int] = {}
        # Survives clear().  Outstanding is issued − served; an entry is
        # dropped when it returns to 0, so the demand signal visits only
        # jobs with work in flight.  It goes negative when an RPC that was
        # enqueued on the policy directly (no recorded arrival) completes.
        self._outstanding: Dict[str, int] = {}

    def record_arrival(self, rpc: Rpc) -> None:
        """Count an RPC issued to this OST."""
        job = rpc.job_id
        self._arrived[job] = self._arrived.get(job, 0) + 1
        outstanding = self._outstanding.get(job, 0) + 1
        if outstanding:
            self._outstanding[job] = outstanding
        else:
            del self._outstanding[job]

    def record_completion(self, rpc: Rpc) -> None:
        """Count an RPC whose OST service finished."""
        job = rpc.job_id
        self._served[job] = self._served.get(job, 0) + 1
        outstanding = self._outstanding.get(job, 0) - 1
        if outstanding:
            self._outstanding[job] = outstanding
        else:
            del self._outstanding[job]

    def outstanding(self, job_id: str) -> int:
        """RPCs issued but not yet served (queued in the NRS or in service)."""
        return self._outstanding.get(job_id, 0)

    def demands(self) -> Dict[str, int]:
        """Per-job demand ``d_x``: RPCs that wanted service this period.

        ``served this period + outstanding now`` for every job where that
        is positive, in job order (DESIGN.md deviation 7).  Visits only
        this period's served jobs and the jobs with outstanding RPCs.
        """
        # Most jobs in a period have work in flight and few were served, so
        # start from the outstanding counts and add the served ones.
        merged = dict(self._outstanding)
        outstanding = merged.get
        for job, served in self._served.items():
            merged[job] = served + outstanding(job, 0)
        demands: Dict[str, int] = {}
        for job in sorted(merged):
            demand = merged[job]
            if demand > 0:
                demands[job] = demand
        return demands

    def snapshot(self) -> Dict[str, JobStatsSnapshot]:
        """Per-job counters accumulated since the last :meth:`clear`."""
        jobs = set(self._arrived) | set(self._served)
        return {
            job: JobStatsSnapshot(
                job_id=job,
                arrived=self._arrived.get(job, 0),
                served=self._served.get(job, 0),
            )
            for job in jobs
        }

    def clear(self) -> None:
        """Reset period counters (controller step 9 in Fig. 2)."""
        self._arrived.clear()
        self._served.clear()
