"""CSV export of experiment results.

Writes the raw data behind each figure so downstream users can plot with
their tool of choice (the repository itself renders text-only).  All
writers return the path written, create parent directories as needed, and
use plain ``csv`` — no extra dependencies.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.experiment import ExperimentResult
    from repro.experiments.fig9 import FrequencySweep
    from repro.metrics.timeline import Timeline

__all__ = [
    "export_timeline",
    "export_summary",
    "export_records",
    "export_sweep",
    "export_all",
]

PathLike = Union[str, Path]


def _prepare(path: PathLike) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def export_timeline(
    timeline: "Timeline", path: PathLike, jobs: Iterable[str] | None = None
) -> Path:
    """Per-bin throughput series: ``time_s, <job1>, <job2>, ..., aggregate``.

    Values are MiB/s, zero-filled — exactly the Fig. 3/5 plotting input.
    """
    path = _prepare(path)
    job_ids = list(jobs) if jobs is not None else timeline.jobs
    horizon = timeline.horizon_s
    series = {job: timeline.series(job, until=horizon)[1] for job in job_ids}
    times = timeline.series(job_ids[0], until=horizon)[0] if job_ids else []
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s"] + job_ids + ["aggregate"])
        for i, t in enumerate(times):
            row = [f"{t:.3f}"]
            total = 0.0
            for job in job_ids:
                value = float(series[job][i])
                total += value
                row.append(f"{value:.3f}")
            row.append(f"{total:.3f}")
            writer.writerow(row)
    return path


def export_summary(
    summaries: Dict[str, "object"], path: PathLike
) -> Path:
    """Fig. 4(a)-style table: one row per mechanism, columns per job."""
    path = _prepare(path)
    jobs = sorted(
        {job for s in summaries.values() for job in s.per_job_mib_s}
    )
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["mechanism"] + jobs + ["aggregate_mib_s"])
        for mechanism, summary in summaries.items():
            writer.writerow(
                [mechanism]
                + [f"{summary.job(j):.3f}" for j in jobs]
                + [f"{summary.aggregate_mib_s:.3f}"]
            )
    return path


def export_records(result: "ExperimentResult", path: PathLike) -> Path:
    """Fig. 7 input: per-round record and demand per job (AdapTBF runs)."""
    path = _prepare(path)
    jobs = sorted(
        {job for round_ in result.history for job in round_.records}
    )
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["time_s"]
        for job in jobs:
            header += [f"{job}_record", f"{job}_demand"]
        writer.writerow(header)
        for round_ in result.history:
            row = [f"{round_.time:.3f}"]
            for job in jobs:
                row.append(str(round_.records.get(job, 0)))
                row.append(str(round_.demands.get(job, 0)))
            writer.writerow(row)
    return path


def export_sweep(sweep: "FrequencySweep", path: PathLike) -> Path:
    """Fig. 9 input: aggregate throughput per allocation period, one row each."""
    path = _prepare(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["interval_s", "aggregate_mib_s"])
        for interval in sweep.intervals_s:
            writer.writerow([f"{interval:g}", f"{sweep.aggregate(interval):.3f}"])
    return path


def export_all(
    results: Dict[str, "ExperimentResult"], directory: PathLike, prefix: str
) -> Dict[str, Path]:
    """Dump timelines for every mechanism + the summary + AdapTBF records."""
    directory = Path(directory)
    written: Dict[str, Path] = {}
    for mechanism, result in results.items():
        written[f"timeline_{mechanism}"] = export_timeline(
            result.timeline, directory / f"{prefix}_timeline_{mechanism}.csv"
        )
    written["summary"] = export_summary(
        {m: r.summary for m, r in results.items()},
        directory / f"{prefix}_summary.csv",
    )
    for mechanism, result in results.items():
        if result.history:
            written[f"records_{mechanism}"] = export_records(
                result, directory / f"{prefix}_records_{mechanism}.csv"
            )
    return written
