"""Job and process specifications consumed by the cluster builder."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.numeric import is_count
from repro.workloads.patterns import Pattern

__all__ = ["ProcessSpec", "JobSpec"]


@dataclass(frozen=True)
class ProcessSpec:
    """One client process of a job.

    Parameters
    ----------
    pattern:
        What the process does (see :mod:`repro.workloads.patterns`).
    window:
        RPCs kept in flight by this process (Lustre max_rpcs_in_flight).
    """

    pattern: Pattern
    window: int = 8

    def __post_init__(self) -> None:
        if not is_count(self.window):
            raise ValueError(f"window must be an int >= 1, got {self.window!r}")


@dataclass(frozen=True)
class JobSpec:
    """One HPC job: identity, compute allocation and its I/O processes.

    Parameters
    ----------
    job_id:
        Lustre JobID; must be unique within an experiment.
    nodes:
        Compute nodes allocated by the batch scheduler — determines the
        paper's priority ``p_x`` (Eq. 1).
    processes:
        The job's client processes (the paper's jobs run 2 or 16).
    """

    job_id: str
    nodes: int
    processes: Tuple[ProcessSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if not is_count(self.nodes):
            raise ValueError(
                f"job {self.job_id!r}: nodes must be an int >= 1, "
                f"got {self.nodes!r}"
            )
        if not self.processes:
            raise ValueError(f"job {self.job_id!r}: needs at least one process")
        object.__setattr__(self, "processes", tuple(self.processes))

    @property
    def total_bytes_hint(self) -> Optional[int]:
        """Upper bound on the job's total I/O volume, if statically known."""
        total = 0
        for proc in self.processes:
            hint = proc.pattern.total_bytes_hint()
            if hint is None:
                return None
            total += hint
        return total


def validate_jobs(jobs: List[JobSpec]) -> None:
    """Cross-job validation: unique ids, non-empty set."""
    if not jobs:
        raise ValueError("at least one job is required")
    seen = set()
    for job in jobs:
        if job.job_id in seen:
            raise ValueError(f"duplicate job_id {job.job_id!r}")
        seen.add(job.job_id)
