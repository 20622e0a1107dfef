"""Shared plumbing for the per-figure experiment modules.

Every figure adapter runs through the declarative pipeline: the workload
(a registered scenario or a legacy job mix) is lifted into a
:class:`~repro.scenarios.spec.ScenarioSpec` and executed once per
mechanism via :func:`repro.scenarios.runner.run_mechanisms`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.metrics.summary import BandwidthSummary, gains_versus
from repro.metrics.tables import format_gains, format_series, format_table
from repro.scenarios.runner import PAPER_MECHANISMS, RunResult, run_mechanisms
from repro.scenarios.spec import (
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    TopologySpec,
    from_scenario,
)
from repro.workloads.scenarios import BENCH_SCALE, Scenario, ScenarioConfig

__all__ = [
    "bench_scale",
    "full_scale",
    "as_spec",
    "MechanismComparison",
    "ShapeCheck",
    "compare_mechanisms",
]

#: The three mechanism names of §IV-C, in presentation order.
MECHANISMS = PAPER_MECHANISMS


def full_scale() -> ScenarioConfig:
    """The paper's configuration: 1 GiB files, 20/50/80 s delays."""
    return ScenarioConfig(data_scale=1.0, time_scale=1.0)


def bench_scale() -> ScenarioConfig:
    """Reduced configuration for benches/tests (set ``REPRO_FULL=1`` to
    run the paper-size configuration instead).

    Scaling data and time by the same 1/10 keeps every burst's size
    relative to its period — and hence the demand-to-capacity regime —
    unchanged, while a full three-mechanism comparison runs in a few
    wall-clock seconds.
    """
    if os.environ.get("REPRO_FULL"):
        return full_scale()
    return ScenarioConfig(data_scale=BENCH_SCALE, time_scale=BENCH_SCALE)


def as_spec(
    scenario: Union[Scenario, ScenarioSpec],
    interval_s: float = 0.1,
    capacity_mib_s: float = 1024.0,
    overhead_s: float = 0.0,
    variant: str = "full",
    bin_s: Optional[float] = None,
) -> ScenarioSpec:
    """Lift a workload into a spec with the figure-standard knob set.

    A :class:`ScenarioSpec` passes through unchanged (its own topology,
    policy and run settings win); a legacy :class:`Scenario` job mix gets
    the single-OST topology and the given policy knobs.
    """
    if isinstance(scenario, ScenarioSpec):
        return scenario
    return from_scenario(
        scenario,
        topology=TopologySpec(capacity_mib_s=capacity_mib_s),
        policy=PolicySpec(
            interval_s=interval_s, overhead_s=overhead_s, variant=variant
        ),
        run=RunSpec(duration_s=scenario.duration_s, bin_s=bin_s),
    )


@dataclass
class ShapeCheck:
    """One verified qualitative claim of a figure adapter."""

    claim: str
    passed: bool
    detail: str


@dataclass
class MechanismComparison:
    """Results of one scenario run under several mechanisms."""

    scenario: Union[Scenario, ScenarioSpec]
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
    scenario: Union[Scenario, ScenarioSpec],
    interval_s: float = 0.1,
    capacity_mib_s: float = 1024.0,
    overhead_s: float = 0.0,
    variant: str = "full",
    mechanisms=MECHANISMS,
    bin_s: Optional[float] = None,
) -> MechanismComparison:
    """Run ``scenario`` under each mechanism with otherwise equal hardware."""
    spec = as_spec(
        scenario,
        interval_s=interval_s,
        capacity_mib_s=capacity_mib_s,
        overhead_s=overhead_s,
        variant=variant,
        bin_s=bin_s,
    )
    return MechanismComparison(
        scenario=scenario, results=run_mechanisms(spec, mechanisms)
    )
