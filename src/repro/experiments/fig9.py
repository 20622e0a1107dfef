"""Experiment E4 — §IV-H token allocation frequency sweep (paper Fig. 9).

Reruns the §IV-F workload under AdapTBF with observation periods from
100 ms up to 2 s (scaled with the scenario's time scale so the ratio of
control period to burst cadence matches the paper's).  Expected shape:
aggregate I/O throughput is (weakly) decreasing in the allocation period —
finer control adapts to bursts faster — which is why the paper selects
100 ms.

The sweep runs through the campaign engine: ``run`` builds the registered
``freq-sweep`` campaign (one cell per allocation period, each a build of
the registered ``recompensation`` scenario) and executes it via
:func:`repro.campaigns.run_campaign` — pass ``jobs=N`` to fan the periods
out across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.common import ShapeCheck
from repro.metrics.tables import format_table

__all__ = ["SCENARIO", "run", "report", "check_shapes", "PAPER_INTERVALS_S"]

#: The registered scenario each ``freq-sweep`` cell runs.
SCENARIO = "recompensation"

#: The paper sweeps the allocation period starting at its 100 ms choice.
PAPER_INTERVALS_S = (0.1, 0.25, 0.5, 1.0, 2.0)


@dataclass
class FrequencySweep:
    """Aggregate throughput per allocation interval."""

    intervals_s: List[float]
    aggregates: Dict[float, float]

    def aggregate(self, interval_s: float) -> float:
        return self.aggregates[interval_s]


def run(
    intervals_s: Sequence[float] = PAPER_INTERVALS_S, jobs: int = 1, **params
) -> FrequencySweep:
    """Sweep the AdapTBF observation period over the §IV-F workload.

    ``params`` are ``recompensation`` scenario parameters the
    ``freq-sweep`` campaign passes to every cell (``data_scale``,
    ``time_scale``, ``heavy_procs``, ``window``, ``capacity_mib_s``);
    ``intervals_s`` are paper seconds, scaled by the resolved
    ``time_scale``.
    """
    # Function-level import: repro.campaigns.builtin imports this module
    # for PAPER_INTERVALS_S, so the campaign engine must load lazily.
    from repro.campaigns import CAMPAIGNS, run_campaign

    time_scale = params.get(
        "time_scale", CAMPAIGNS.get("freq-sweep").params["time_scale"]
    )
    scaled = [interval * time_scale for interval in intervals_s]
    campaign = CAMPAIGNS.build(
        "freq-sweep",
        # str() round-trips floats exactly, so each cell's interval_s is
        # bit-identical to the scaled value computed here.
        intervals=",".join(str(interval) for interval in scaled),
        **params,
    )
    result = run_campaign(campaign, jobs=jobs)
    aggregates = {
        outcome.params["interval_s"]: outcome.row.aggregate_mib_s
        for outcome in result.outcomes
    }
    return FrequencySweep(intervals_s=scaled, aggregates=aggregates)


def check_shapes(sweep: FrequencySweep) -> List[ShapeCheck]:
    aggregates = [sweep.aggregate(i) for i in sweep.intervals_s]
    finest, coarsest = aggregates[0], aggregates[-1]
    return [
        ShapeCheck(
            claim="finest allocation period yields the highest aggregate "
            "throughput",
            passed=finest >= max(aggregates) * 0.98,
            detail=f"aggregates={[round(a, 1) for a in aggregates]}",
        ),
        ShapeCheck(
            claim="throughput degrades from finest to coarsest period",
            passed=finest > coarsest,
            detail=(
                f"{sweep.intervals_s[0]*1e3:.0f}ms: {finest:.1f} vs "
                f"{sweep.intervals_s[-1]*1e3:.0f}ms: {coarsest:.1f} MiB/s"
            ),
        ),
    ]


def report(sweep: FrequencySweep) -> str:
    rows = [
        [f"{interval * 1e3:.0f} ms", sweep.aggregate(interval)]
        for interval in sweep.intervals_s
    ]
    parts = [
        "=" * 72,
        "E4 / Fig. 9: aggregate throughput vs token allocation frequency",
        "=" * 72,
        format_table(
            ["allocation period", "aggregate MiB/s"],
            rows,
            title="Fig 9: I/O throughput for varying allocation frequency",
        ),
        "",
        "Shape checks:",
    ]
    for check in check_shapes(sweep):
        status = "PASS" if check.passed else "FAIL"
        parts.append(f"  [{status}] {check.claim}")
        parts.append(f"         {check.detail}")
    return "\n".join(parts)
