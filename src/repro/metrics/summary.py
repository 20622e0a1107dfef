"""Experiment summaries: achieved bandwidth and gains versus a baseline.

These produce the numbers behind the paper's bar charts:

* Fig. 4(a)/6(a)/8(a): achieved I/O bandwidth per job and overall, per
  mechanism;
* Fig. 4(b)/6(b)/8(b): AdapTBF's per-job throughput gain/loss relative to a
  baseline, in percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.metrics.timeline import Timeline
from repro.numeric import fold_sum

__all__ = [
    "BandwidthSummary",
    "summarize",
    "gains_versus",
    "jain_index",
    "weighted_jain",
]

MIB = 1 << 20


@dataclass(frozen=True)
class BandwidthSummary:
    """Achieved bandwidth of one experiment run."""

    mechanism: str
    duration_s: float
    per_job_mib_s: Dict[str, float]
    aggregate_mib_s: float

    def job(self, job_id: str) -> float:
        return self.per_job_mib_s.get(job_id, 0.0)


def summarize(
    mechanism: str,
    timeline: Timeline,
    duration_s: Optional[float] = None,
    jobs: Optional[List[str]] = None,
    job_completion_s: Optional[Dict[str, float]] = None,
) -> BandwidthSummary:
    """Compute per-job and aggregate mean bandwidth.

    A job's bandwidth is averaged over *its own* active span — from t=0 to
    its completion (or the experiment duration if it never finished).  This
    matches the paper's Fig. 4(a) reading: in a run-to-completion experiment
    where every job writes the same volume, a higher-priority job that
    finishes sooner achieves higher bandwidth even though total bytes are
    equal.  The aggregate is total bytes over the experiment duration — the
    storage server's overall delivered throughput.
    """
    span = duration_s if duration_s is not None else timeline.horizon_s
    if span <= 0:
        raise ValueError(f"duration must be positive, got {span}")
    job_ids = jobs if jobs is not None else timeline.jobs
    completions = job_completion_s or {}
    per_job: Dict[str, float] = {}
    for job in job_ids:
        job_span = min(completions.get(job, span), span)
        job_span = max(job_span, 1e-12)
        per_job[job] = timeline.total_bytes(job) / job_span / MIB
    return BandwidthSummary(
        mechanism=mechanism,
        duration_s=span,
        per_job_mib_s=per_job,
        aggregate_mib_s=timeline.total_bytes() / span / MIB,
    )


def weighted_jain(
    per_job: Dict[str, float], weights: Optional[Dict[str, float]] = None
) -> float:
    """Jain's fairness index over weighted per-job quantities.

    The raw-mapping core of :func:`jain_index`, usable on any per-job
    measure (bandwidth, bytes in a disturbance window, ...).  1.0 =
    perfectly proportional to the weights; 1/n = one job gets everything;
    the all-zero mapping reports 1.0 by convention (nothing served is
    vacuously fair).  Pure Python — the fault axis computes
    fairness-under-failure from it on the numpy-free path.
    """
    values = []
    for job, quantity in per_job.items():
        weight = (weights or {}).get(job, 1.0)
        if weight <= 0:
            raise ValueError(f"weight for {job!r} must be positive")
        values.append(quantity / weight)
    if not values or all(v == 0 for v in values):
        return 1.0
    numerator = fold_sum(values) ** 2
    denominator = len(values) * fold_sum(v * v for v in values)
    return numerator / denominator


def jain_index(
    summary: BandwidthSummary, weights: Optional[Dict[str, float]] = None
) -> float:
    """Jain's fairness index over (optionally weighted) per-job bandwidth.

    1.0 = perfectly proportional; 1/n = one job gets everything.  With
    ``weights`` set to the jobs' priorities, the index measures *weighted*
    fairness — how closely achieved bandwidth tracks the paper's
    node-proportional entitlement (``x_i = bw_i / weight_i``).
    """
    return weighted_jain(summary.per_job_mib_s, weights)


def gains_versus(
    subject: BandwidthSummary, baseline: BandwidthSummary
) -> Dict[str, float]:
    """Per-job percentage gain (+) / loss (−) of ``subject`` vs ``baseline``.

    Jobs absent from the baseline (zero bandwidth there) report ``inf`` gain
    when the subject served them at all.
    """
    gains: Dict[str, float] = {}
    jobs = set(subject.per_job_mib_s) | set(baseline.per_job_mib_s)
    for job in sorted(jobs):
        subject_bw = subject.job(job)
        baseline_bw = baseline.job(job)
        if baseline_bw == 0.0:
            gains[job] = float("inf") if subject_bw > 0 else 0.0
        else:
            gains[job] = 100.0 * (subject_bw - baseline_bw) / baseline_bw
    gains["aggregate"] = (
        100.0
        * (subject.aggregate_mib_s - baseline.aggregate_mib_s)
        / baseline.aggregate_mib_s
        if baseline.aggregate_mib_s > 0
        else 0.0
    )
    return gains
