"""Streaming reduction of campaign cells into flat summary rows.

A parameter sweep only needs a handful of numbers per cell — throughput,
fairness, rule churn, latency percentiles — never the cell's full
:class:`~repro.cluster.experiment.ExperimentResult` (timelines, allocation
histories, per-RPC records).  :func:`run_cell` therefore executes a resolved
spec *and reduces it in place*: metric collection is trimmed to what the row
needs (no allocation history, no utilization-free extras), per-RPC latencies
are folded into percentiles as the run's own completion stream fires, and
only the flat :class:`CellRow` ever leaves the worker process.  The parent
process of a ``--jobs N`` campaign holds one row per cell, not N simulation
histories.

:class:`CampaignSummary` is the matching cross-cell reduction: feed it
outcomes one at a time and read aggregate statistics at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.metrics.summary import jain_index, weighted_jain
from repro.numeric import fold_sum
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "CELL_METRICS",
    "CellRow",
    "run_cell",
    "percentile",
    "CampaignSummary",
]

#: Metric groups a campaign cell collects — summaries only; timelines are
#: recorded (``summary`` implies them) but histories are skipped entirely.
CELL_METRICS = ("summary", "utilization")

#: Latency percentiles every row reports, in order.
LATENCY_PERCENTILES = (50, 95, 99)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    Returns 0.0 for an empty sequence — a cell that served nothing has no
    latency distribution to speak of.
    """
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class CellRow:
    """The flat, JSON/CSV-ready summary of one executed cell.

    Latency is OSS residence time per RPC — NRS enqueue (``arrived``) to
    OST service completion — i.e. the queueing delay the bandwidth-control
    mechanism actually shapes, excluding client-side network latency.
    """

    scenario: str
    mechanism: str
    duration_s: float
    clients_finished: bool
    aggregate_mib_s: float
    #: Node-weighted Jain index: how closely achieved bandwidth tracks the
    #: paper's priority entitlement (1.0 = perfectly proportional).
    fairness: float
    ost_utilization: float
    per_job_mib_s: Dict[str, float]
    rpcs_completed: int
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    #: Rule churn, summed over every OST's rule daemon.
    rules_created: int
    rules_stopped: int
    rate_changes: int
    #: Allocation rounds run, summed over every OST's controller.
    rounds_run: int
    #: Chaos metrics (zero/identity defaults keep fault-free rows and
    #: pre-fault-axis stores loading unchanged).  Recovery time: seconds
    #: past the disturbance window until aggregate throughput first regains
    #: 90% of its pre-disturbance mean (0.0 when nothing preceded the
    #: window; the remaining run length when it never recovers).
    recovery_s: float = 0.0
    #: Node-weighted Jain over bytes completed during / after the window.
    fairness_during: float = 1.0
    fairness_after: float = 1.0
    #: Crash-aborted in-flight transfers and crash-requeued RPCs.
    rpcs_dropped: int = 0
    rpcs_retried: int = 0
    #: Control-plane columns (zero defaults keep pre-decentralization-axis
    #: stores loading unchanged).  Mean observation → enforcement lag of
    #: applied rule updates, averaged over the handles that reported one.
    rule_lag_s: float = 0.0
    #: Bytes of rate granted beyond live demand at enforcement time,
    #: summed over handles — the staleness-induced overshoot.
    overshoot_bytes: float = 0.0
    #: Used ÷ reserved capacity, averaged over the handles that reserve
    #: anything (0.0 when no mechanism in the cell reserves).
    reservation_util: float = 0.0

    @property
    def rule_churn(self) -> int:
        """Total rule-management operations (created + stopped + re-rated)."""
        return self.rules_created + self.rules_stopped + self.rate_changes

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CellRow":
        """Rebuild a row from its :meth:`as_dict` form, bit-identically.

        The store persists rows as JSON; Python's float JSON round-trip is
        exact, so ``CellRow.from_dict(row.as_dict()) == row`` always holds
        — what crash/resume byte-identity rests on.
        """
        data = dict(payload)
        data.pop("rule_churn", None)  # derived, not a field
        return cls(**data)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "mechanism": self.mechanism,
            "duration_s": self.duration_s,
            "clients_finished": self.clients_finished,
            "aggregate_mib_s": self.aggregate_mib_s,
            "fairness": self.fairness,
            "ost_utilization": self.ost_utilization,
            "per_job_mib_s": dict(self.per_job_mib_s),
            "rpcs_completed": self.rpcs_completed,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "rules_created": self.rules_created,
            "rules_stopped": self.rules_stopped,
            "rate_changes": self.rate_changes,
            "rule_churn": self.rule_churn,
            "rounds_run": self.rounds_run,
            "recovery_s": self.recovery_s,
            "fairness_during": self.fairness_during,
            "fairness_after": self.fairness_after,
            "rpcs_dropped": self.rpcs_dropped,
            "rpcs_retried": self.rpcs_retried,
            "rule_lag_s": self.rule_lag_s,
            "overshoot_bytes": self.overshoot_bytes,
            "reservation_util": self.reservation_util,
        }


class _ChaosProbe:
    """Plain-dict byte bucketing for the fault axis (numpy-free by design).

    Accumulates, per completed RPC, (a) aggregate bytes per timeline bin and
    (b) per-job bytes during and after the disturbance window.  The window is
    known statically (``ClusterTopology.fault_window``) before the run, so
    this is a single pass over the completion stream with no post-hoc
    re-binning — the same streaming discipline :func:`run_cell` applies to
    latencies.
    """

    def __init__(self, window: Any, bin_s: float) -> None:
        self.start, self.end = window
        self.bin_s = bin_s
        self.bins: Dict[int, float] = {}
        self.during: Dict[str, float] = {}
        self.after: Dict[str, float] = {}

    def record(self, rpc) -> None:
        if rpc.completed is None:
            return
        size = float(rpc.size_bytes)
        index = int(rpc.completed / self.bin_s)
        self.bins[index] = self.bins.get(index, 0.0) + size
        if self.start <= rpc.completed < self.end:
            self.during[rpc.job_id] = self.during.get(rpc.job_id, 0.0) + size
        elif rpc.completed >= self.end:
            self.after[rpc.job_id] = self.after.get(rpc.job_id, 0.0) + size

    def recovery_s(self, duration_s: float) -> float:
        """Seconds past the window until 90% of pre-disturbance throughput.

        The pre-disturbance mean is taken over whole bins strictly before
        the window opens; the scan starts at the first whole bin after it
        closes (the bin straddling the window edge is partially disturbed).
        Returns 0.0 when nothing preceded the window and the remaining run
        length when throughput never comes back.  A window that outlasts
        the run reads 0.0; the scan start is clamped to just past the run,
        so one that never closes (``end == inf``) does too.
        """
        n_pre = int(self.start / self.bin_s)
        if n_pre <= 0:
            return 0.0
        pre_bytes = fold_sum(self.bins.get(i, 0.0) for i in range(n_pre))
        pre_rate = pre_bytes / n_pre
        if pre_rate <= 0:
            return 0.0
        first = math.ceil(min(self.end, duration_s + self.bin_s) / self.bin_s)
        last = int(duration_s / self.bin_s)
        for index in range(first, last + 1):
            if self.bins.get(index, 0.0) >= 0.9 * pre_rate:
                return max(0.0, (index + 1) * self.bin_s - self.end)
        return max(0.0, duration_s - self.end)


def run_cell(spec: ScenarioSpec) -> CellRow:
    """Execute ``spec`` with sweep-trimmed collection and reduce to a row.

    The trim (no allocation history, summary+utilization metrics only)
    changes what is *retained*, never the simulated physics: a cell's
    throughput numbers are identical to a full ``run_scenario`` of the same
    spec.
    """
    trimmed = spec.with_policy(keep_history=False).with_run(
        metrics=CELL_METRICS
    )
    cluster = build(trimmed)

    latencies: List[float] = []

    def record_latency(rpc) -> None:
        if rpc.arrived is not None and rpc.completed is not None:
            latencies.append(rpc.completed - rpc.arrived)

    window = cluster.fault_window()
    probe = (
        _ChaosProbe(window, trimmed.bin_s) if window is not None else None
    )
    for oss in cluster.osses:
        oss.on_complete(record_latency)
        if probe is not None:
            oss.on_complete(probe.record)

    result = execute(cluster)

    weights = {job_id: float(n) for job_id, n in trimmed.nodes.items()}
    if probe is not None:
        recovery_s = probe.recovery_s(result.duration_s)
        fairness_during = weighted_jain(probe.during, weights=weights)
        fairness_after = weighted_jain(probe.after, weights=weights)
    else:
        recovery_s, fairness_during, fairness_after = 0.0, 1.0, 1.0
    p50, p95, p99 = (
        percentile(latencies, q) * 1e3 for q in LATENCY_PERCENTILES
    )
    lags = [h.rule_lag_s for h in cluster.handles if h.rule_lag_s > 0]
    utils = [
        h.reservation_util
        for h in cluster.handles
        if h.reservation_util is not None
    ]
    return CellRow(
        scenario=spec.name,
        mechanism=result.mechanism,
        duration_s=result.duration_s,
        clients_finished=result.clients_finished,
        aggregate_mib_s=result.summary.aggregate_mib_s,
        fairness=jain_index(result.summary, weights=weights),
        ost_utilization=result.ost_utilization,
        per_job_mib_s=dict(result.summary.per_job_mib_s),
        rpcs_completed=sum(oss.completed_rpcs for oss in cluster.osses),  # repro: allow[no-float-sum] reason=integer RPC counts
        latency_p50_ms=p50,
        latency_p95_ms=p95,
        latency_p99_ms=p99,
        rules_created=sum(h.rules_created for h in cluster.handles),  # repro: allow[no-float-sum] reason=integer rule counts
        rules_stopped=sum(h.rules_stopped for h in cluster.handles),  # repro: allow[no-float-sum] reason=integer rule counts
        rate_changes=sum(h.rate_changes for h in cluster.handles),  # repro: allow[no-float-sum] reason=integer re-rate counts
        rounds_run=sum(h.rounds_run for h in cluster.handles),  # repro: allow[no-float-sum] reason=integer round counts
        recovery_s=recovery_s,
        fairness_during=fairness_during,
        fairness_after=fairness_after,
        rpcs_dropped=cluster.rpcs_dropped,
        rpcs_retried=cluster.rpcs_retried,
        rule_lag_s=fold_sum(lags) / len(lags) if lags else 0.0,
        overshoot_bytes=fold_sum(h.overshoot_bytes for h in cluster.handles),
        reservation_util=fold_sum(utils) / len(utils) if utils else 0.0,
    )


@dataclass
class CampaignSummary:
    """Streaming cross-cell statistics: ``add`` outcomes, read at the end."""

    cells: int = 0
    finished_cells: int = 0
    rpcs_completed: int = 0
    rule_churn: int = 0
    wall_s: float = 0.0
    aggregate_sum: float = 0.0
    aggregate_min: float = math.inf
    aggregate_max: float = -math.inf
    fairness_min: float = math.inf
    latency_p99_max_ms: float = 0.0
    best_cell_index: int = -1
    best_cell_params: Dict[str, Any] = field(default_factory=dict)

    def add(self, outcome) -> None:
        """Fold one :class:`~repro.campaigns.executor.CellOutcome` in."""
        row = outcome.row
        self.cells += 1
        self.finished_cells += int(row.clients_finished)
        self.rpcs_completed += row.rpcs_completed
        self.rule_churn += row.rule_churn
        self.wall_s += outcome.wall_s
        self.aggregate_sum += row.aggregate_mib_s
        self.aggregate_min = min(self.aggregate_min, row.aggregate_mib_s)
        self.fairness_min = min(self.fairness_min, row.fairness)
        self.latency_p99_max_ms = max(
            self.latency_p99_max_ms, row.latency_p99_ms
        )
        if row.aggregate_mib_s > self.aggregate_max:
            self.aggregate_max = row.aggregate_mib_s
            self.best_cell_index = outcome.index
            self.best_cell_params = dict(outcome.params)

    @property
    def aggregate_mean(self) -> float:
        return self.aggregate_sum / self.cells if self.cells else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "cells": self.cells,
            "finished_cells": self.finished_cells,
            "rpcs_completed": self.rpcs_completed,
            "rule_churn": self.rule_churn,
            "aggregate_mean_mib_s": self.aggregate_mean,
            "aggregate_min_mib_s": (
                self.aggregate_min if self.cells else 0.0
            ),
            "aggregate_max_mib_s": (
                self.aggregate_max if self.cells else 0.0
            ),
            "fairness_min": self.fairness_min if self.cells else 1.0,
            "latency_p99_max_ms": self.latency_p99_max_ms,
            "best_cell_index": self.best_cell_index,
            "best_cell_params": dict(self.best_cell_params),
        }
