"""Experiment E5 — §IV-G framework overhead analysis.

The paper reports:

* token allocation time **< 30 µs per job**, scaling **linearly** (O(n))
  with the number of active jobs (1000 jobs ⇒ < 30 ms);
* a fixed ~25 ms per round for stats collection and rule management,
  independent of job count;
* memory footprint limited to ``{job id → record}``.

This module times our actual allocator on synthetic job populations and
verifies the linear scaling.  Absolute µs/job depends on the host and on
Python-vs-C, so :func:`check_shapes` verifies *scaling*, not the absolute
constant (the measured constant is reported for EXPERIMENTS.md).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.allocation import TokenAllocationAlgorithm
from repro.sim.rng import RngStreams, import_numpy
from repro.core.types import AllocationInput
from repro.experiments.common import ShapeCheck
from repro.metrics.tables import format_table

__all__ = ["run", "report", "check_shapes", "PAPER_JOB_COUNTS", "time_allocation"]

PAPER_JOB_COUNTS = (4, 16, 64, 256, 1000)


@dataclass
class OverheadResult:
    """Per-population timing of the allocation algorithm."""

    job_counts: List[int]
    #: median seconds per allocation round, keyed by job count
    seconds_per_round: Dict[int, float]
    #: median round time per job in microseconds, keyed by job count
    us_per_job: Dict[int, float]


def _synthetic_inputs(n_jobs: int, rounds: int) -> List[AllocationInput]:
    """Deterministic demand histories exercising all three steps."""
    rng = RngStreams(seed=n_jobs).get("overhead.demands")
    nodes = {f"job{i}": int(rng.integers(1, 32)) for i in range(n_jobs)}
    inputs = []
    for _ in range(rounds):
        demands = {
            job: int(rng.integers(1, 500)) for job in nodes
        }
        inputs.append(
            AllocationInput(
                interval_s=0.1,
                max_token_rate=100_000.0,
                demands=demands,
                nodes=nodes,
            )
        )
    return inputs


def time_allocation(n_jobs: int, rounds: int = 20) -> float:
    """Median wall-clock seconds per allocation round for ``n_jobs``.

    Each round is timed on its own, so a pre-emption or another process's
    burst on the host moves one sample, not the result.
    """
    inputs = _synthetic_inputs(n_jobs, rounds)
    algo = TokenAllocationAlgorithm()
    algo.allocate(inputs[0])  # warm up (first round has no history)
    samples = []
    for inp in inputs:
        start = time.perf_counter()  # repro: allow[no-wallclock] reason=timing the allocator is this experiment's purpose (paper SIV-G)
        algo.allocate(inp)
        samples.append(time.perf_counter() - start)  # repro: allow[no-wallclock] reason=wall time is the measured quantity, quarantined to the report
    return statistics.median(samples)


def run(
    job_counts: Sequence[int] = PAPER_JOB_COUNTS, rounds: int = 20
) -> OverheadResult:
    seconds: Dict[int, float] = {}
    us_per_job: Dict[int, float] = {}
    for n in job_counts:
        per_round = time_allocation(n, rounds=rounds)
        seconds[n] = per_round
        us_per_job[n] = per_round / n * 1e6
    return OverheadResult(
        job_counts=list(job_counts),
        seconds_per_round=seconds,
        us_per_job=us_per_job,
    )


def check_shapes(result: OverheadResult) -> List[ShapeCheck]:
    np = import_numpy("overhead's linear fits")
    counts = np.array(result.job_counts, dtype=float)
    times = np.array(
        [result.seconds_per_round[n] for n in result.job_counts]
    )
    # Fit t = a*n + b; linear scaling means the fit explains the data and
    # super-linear growth is absent (quadratic term negligible).
    a, b = np.polyfit(counts, times, 1)
    predicted = a * counts + b
    residual = np.abs(predicted - times) / times.max()
    # Per-job cost should be flat-ish: the largest population's per-job cost
    # must not exceed a small multiple of the smallest population's.
    per_job = np.array([result.us_per_job[n] for n in result.job_counts])
    growth = per_job[-1] / per_job[0]
    return [
        ShapeCheck(
            claim="allocation time scales linearly with active jobs (O(n))",
            # Wall-clock timing at small n is jittery; 25% of the largest
            # sample is tight enough to reject quadratic growth.
            passed=bool(np.all(residual < 0.25)),
            detail=f"linear-fit residuals: {np.round(residual, 3).tolist()}",
        ),
        ShapeCheck(
            claim="per-job cost roughly constant across populations",
            passed=bool(growth < 3.0),
            detail=(
                f"us/job: { {n: round(result.us_per_job[n], 1) for n in result.job_counts} }"
            ),
        ),
    ]


def report(result: OverheadResult) -> str:
    rows = [
        [
            n,
            result.seconds_per_round[n] * 1e3,
            result.us_per_job[n],
        ]
        for n in result.job_counts
    ]
    parts = [
        "=" * 72,
        "E5 / §IV-G: token allocation overhead",
        "=" * 72,
        format_table(
            ["active jobs", "ms per round", "us per job"],
            rows,
            title="Allocation algorithm timing (pure-Python implementation)",
        ),
        "",
        "Paper reference: < 30 us/job in the C/Lustre prototype; the shape "
        "claim is O(n).",
        "Shape checks:",
    ]
    for check in check_shapes(result):
        status = "PASS" if check.passed else "FAIL"
        parts.append(f"  [{status}] {check.claim}")
        parts.append(f"         {check.detail}")
    return "\n".join(parts)
