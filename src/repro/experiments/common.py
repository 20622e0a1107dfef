"""Shared plumbing for the per-figure experiment modules.

Every figure adapter builds its workload with
``REGISTRY.build(<its scenario>, **params)`` and runs the resulting
:class:`~repro.scenarios.spec.ScenarioSpec` once per mechanism via
:func:`repro.scenarios.runner.run_mechanisms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.metrics.summary import BandwidthSummary, gains_versus
from repro.metrics.tables import format_gains, format_series, format_table
from repro.scenarios.runner import PAPER_MECHANISMS, RunResult, run_mechanisms
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "MechanismComparison",
    "ShapeCheck",
    "compare_mechanisms",
]

#: The three mechanism names of §IV-C, in presentation order.
MECHANISMS = PAPER_MECHANISMS


@dataclass
class ShapeCheck:
    """One verified qualitative claim of a figure adapter."""

    claim: str
    passed: bool
    detail: str


@dataclass
class MechanismComparison:
    """Results of one scenario run under several mechanisms."""

    scenario: ScenarioSpec
    results: Dict[str, RunResult]  # keyed by registered mechanism name

    @property
    def none(self) -> RunResult:
        return self.results["none"]

    @property
    def static(self) -> RunResult:
        return self.results["static"]

    @property
    def adaptbf(self) -> RunResult:
        return self.results["adaptbf"]

    @property
    def job_ids(self) -> List[str]:
        return [job.job_id for job in self.scenario.jobs]

    # -- reporting -----------------------------------------------------------
    def bandwidth_table(self, title: str) -> str:
        """Fig. 4(a)/6(a)/8(a): achieved bandwidth per job and overall."""
        headers = ["mechanism"] + self.job_ids + ["overall"]
        rows = []
        for mech, result in self.results.items():
            summary: BandwidthSummary = result.summary
            rows.append(
                [mech]
                + [summary.job(j) for j in self.job_ids]
                + [summary.aggregate_mib_s]
            )
        return format_table(headers, rows, title=title)

    def gains_table(self, versus: str, title: str) -> str:
        """Fig. 4(b)/6(b)/8(b): AdapTBF gain/loss vs a baseline, percent."""
        gains = gains_versus(self.adaptbf.summary, self.results[versus].summary)
        return format_gains(gains, title=title)

    def timeline_report(self, mechanism: str, resample_s: float = 1.0) -> str:
        """Fig. 3/5-style per-job throughput series for one mechanism."""
        result = self.results[mechanism]
        blocks = [f"--- {mechanism}: per-job throughput timeline ---"]
        horizon = result.duration_s
        for job in self.job_ids:
            times, values = result.timeline.series(job, until=horizon)
            blocks.append(
                format_series(f"{job}", times, values, resample_s=resample_s)
            )
        return "\n".join(blocks)


def compare_mechanisms(
    spec: ScenarioSpec, mechanisms=MECHANISMS
) -> MechanismComparison:
    """Run ``spec`` under each mechanism with otherwise equal hardware."""
    return MechanismComparison(
        scenario=spec, results=run_mechanisms(spec, mechanisms)
    )
