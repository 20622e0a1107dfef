"""The pipeline's execution entry point: ``run_scenario(spec) → RunResult``.

One call materializes a :class:`~repro.scenarios.spec.ScenarioSpec` through
the cluster builder, executes it, and returns a :class:`RunResult` — the
:class:`~repro.cluster.experiment.ExperimentResult` measurement set plus
the spec that produced it, so downstream consumers (reports, CSV export,
sweeps) never need out-of-band context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cluster.builder import build
from repro.cluster.experiment import ExperimentResult, execute
from repro.scenarios.spec import ScenarioSpec

__all__ = ["PAPER_MECHANISMS", "RunResult", "run_scenario", "run_mechanisms"]

#: The paper's §IV-C comparison set, in presentation order.  Any name
#: registered in :data:`repro.core.mechanism.MECHANISMS` is runnable.
PAPER_MECHANISMS = ("none", "static", "adaptbf")


@dataclass
class RunResult(ExperimentResult):
    """An :class:`ExperimentResult` that remembers the spec it came from."""

    spec: Optional[ScenarioSpec] = None

    @classmethod
    def from_result(cls, result: ExperimentResult, spec: ScenarioSpec) -> "RunResult":
        return cls(spec=spec, **vars(result))


def run_scenario(spec: ScenarioSpec) -> RunResult:
    """Build and execute ``spec``; the single pipeline entry point."""
    return RunResult.from_result(execute(build(spec)), spec)


def run_mechanisms(
    spec: ScenarioSpec, mechanisms: Sequence[str] = PAPER_MECHANISMS
) -> Dict[str, RunResult]:
    """Run ``spec`` once per mechanism with otherwise equal hardware.

    ``mechanisms`` are registry names (default: the paper's §IV-C trio);
    results are keyed by the normalized name — the comparison every figure
    of the paper is built from, now open to any registered contender.
    """
    results: Dict[str, RunResult] = {}
    for mechanism in mechanisms:
        result = run_scenario(spec.with_policy(mechanism=mechanism))
        results[result.spec.policy.mechanism] = result
    return results
