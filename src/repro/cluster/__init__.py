"""Cluster assembly and experiment driving.

:mod:`repro.cluster.builder` materializes a
:class:`~repro.scenarios.spec.ScenarioSpec` into clients → network →
OSS/OST with the chosen bandwidth-control mechanism
(``build(spec) → ClusterTopology``); :mod:`repro.cluster.experiment`
executes a built topology and collects the timelines and summaries the
paper's figures are built from.

A run is configured only by a ``ScenarioSpec``: ``execute(build(spec))``
runs it, and :func:`repro.scenarios.run_scenario` does the same and
attaches the spec to the result.
"""

from repro.cluster.builder import ClusterTopology, build
from repro.cluster.experiment import ExperimentResult, execute

__all__ = [
    "ClusterTopology",
    "ExperimentResult",
    "build",
    "execute",
]
