"""Generic scenario-run reporting.

The figure adapters format paper-specific tables; everything else — new
registered scenarios, ad-hoc CLI runs, sweeps — shares this one renderer,
which turns a :class:`~repro.scenarios.runner.RunResult` into the standard
text block: spec header, per-job achieved bandwidth/share/completion,
aggregate, utilization, and the controller's final ledger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.tables import format_table
from repro.numeric import fold_sum

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaigns.executor import CampaignResult
    from repro.scenarios.runner import RunResult

__all__ = [
    "format_run_report",
    "format_campaign_report",
    "format_mechanism_table",
    "format_chaos_table",
    "format_decentralization_table",
]


def format_run_report(result: "RunResult") -> str:
    """Render one pipeline run as a plain-text report."""
    spec = result.spec
    parts = []
    if spec is not None:
        parts += [spec.describe(), ""]

    summary = result.summary
    aggregate = summary.aggregate_mib_s
    job_ids = spec.job_ids if spec is not None else sorted(summary.per_job_mib_s)
    mib = 1 << 20
    rows = []
    for job in job_ids:
        done = result.job_completion_s.get(job)
        rows.append(
            [
                job,
                f"{summary.job(job):.1f}",
                f"{result.timeline.total_bytes(job) / mib:.0f}",
                f"{done:.2f}" if done is not None else "-",
            ]
        )
    parts.append(
        format_table(
            ["job", "MiB/s", "MiB_written", "completed_s"],
            rows,
            title=f"achieved bandwidth ({result.mechanism})",
        )
    )
    parts.append("")
    parts.append(
        f"aggregate: {aggregate:.1f} MiB/s over {result.duration_s:.2f}s "
        f"simulated; mean OST utilization {result.ost_utilization:.2f}; "
        f"all clients finished: {result.clients_finished}"
    )
    if result.per_ost_histories:
        rounds = ", ".join(
            f"OST{i:04d}: {len(h)}" for i, h in enumerate(result.per_ost_histories)
        )
        parts.append(f"controller rounds per OST: {rounds}")
        final = result.history[-1].records if result.history else {}
        if final:
            ledger = ", ".join(
                f"{job}: {tokens:+d}" for job, tokens in sorted(final.items())
            )
            parts.append(f"final lending ledger (first OST): {ledger}")
    return "\n".join(parts)


def format_campaign_report(result: "CampaignResult") -> str:
    """Render a campaign run: one row per cell plus cross-cell summary."""
    campaign = result.campaign
    param_names = sorted(
        {name for outcome in result.outcomes for name in outcome.params}
    )
    rows = []
    for outcome in result.outcomes:
        row = outcome.row
        rows.append(
            [outcome.index]
            + [repr(outcome.params.get(name, "")) for name in param_names]
            + [
                f"{row.aggregate_mib_s:.1f}",
                f"{row.fairness:.3f}",
                f"{row.latency_p99_ms:.1f}",
                row.rule_churn,
                f"{outcome.wall_s:.2f}",
            ]
        )
    summary = result.summary()
    parts = [
        format_table(
            ["cell"]
            + param_names
            + ["MiB/s", "fairness", "p99 ms", "churn", "wall s"],
            rows,
            title=(
                f"campaign {campaign.name!r} over scenario "
                f"{campaign.scenario!r} ({len(result.outcomes)} cells, "
                f"jobs={result.jobs})"
            ),
        ),
        "",
        f"aggregate MiB/s: mean {summary.aggregate_mean:.1f}, "
        f"min {summary.aggregate_min:.1f}, max {summary.aggregate_max:.1f} "
        f"(best cell {summary.best_cell_index}: "
        + " ".join(
            f"{k}={v!r}" for k, v in sorted(summary.best_cell_params.items())
        )
        + ")",
        f"wall: {result.wall_s:.2f}s total, {result.cells_per_s:.2f} cells/s "
        f"with {result.jobs} worker(s)"
        + (
            f"; executed {result.executed}, skipped "
            f"{result.skipped} already-committed"
            if result.skipped
            else ""
        )
        + f"; spec hash {campaign.spec_hash()}",
    ]
    return "\n".join(parts)


def format_mechanism_table(result: "CampaignResult") -> str:
    """Per-mechanism comparison: throughput, fairness, latency, churn.

    The shootout view of a campaign whose cells sweep ``mechanism``: one
    row per mechanism (cells of the same mechanism averaged), ranked by
    aggregate throughput so the head-to-head ordering is immediate.
    """
    buckets: "dict" = {}
    for outcome in result.outcomes:
        mechanism = outcome.params.get("mechanism", outcome.row.mechanism)
        buckets.setdefault(mechanism, []).append(outcome.row)

    def mean(values):
        return fold_sum(values) / len(values) if values else 0.0

    ranked = sorted(
        buckets.items(),
        key=lambda item: -mean([r.aggregate_mib_s for r in item[1]]),
    )
    rows = []
    for mechanism, cell_rows in ranked:
        rows.append(
            [
                mechanism,
                f"{mean([r.aggregate_mib_s for r in cell_rows]):.1f}",
                f"{mean([r.fairness for r in cell_rows]):.3f}",
                f"{mean([r.latency_p50_ms for r in cell_rows]):.1f}",
                f"{mean([r.latency_p99_ms for r in cell_rows]):.1f}",
                f"{mean([r.rule_churn for r in cell_rows]):.0f}",
                f"{mean([r.ost_utilization for r in cell_rows]):.2f}",
            ]
        )
    return format_table(
        [
            "mechanism",
            "MiB/s",
            "fairness",
            "p50 ms",
            "p99 ms",
            "churn",
            "util",
        ],
        rows,
        title=(
            f"mechanism shootout over scenario "
            f"{result.campaign.scenario!r} (ranked by throughput)"
        ),
    )


def format_decentralization_table(result: "CampaignResult") -> str:
    """Mechanisms ranked per control-plane latency step.

    The decentralization-tax view of a campaign sweeping both ``mechanism``
    and ``mechanism_params``: one block per swept ``ctrl_latency_s`` value
    (ascending), mechanisms within a block ranked by fairness with
    throughput as the tiebreaker.  Decentralized mechanisms ignore the
    latency override, so their rows repeat across blocks as flat reference
    lines — the tax is how far the centralized rows slide down the ranking
    as the latency grows, itemized by the ``lag``/``overshoot``/``resv
    util`` columns.
    """
    buckets: "dict" = {}
    for outcome in result.outcomes:
        overrides = outcome.params.get("mechanism_params") or {}
        latency = float(overrides.get("ctrl_latency_s", 0.0))
        mechanism = outcome.params.get("mechanism", outcome.row.mechanism)
        buckets.setdefault(latency, {}).setdefault(mechanism, []).append(
            outcome.row
        )

    def mean(values):
        return fold_sum(values) / len(values) if values else 0.0

    mib = float(1 << 20)
    rows = []
    for latency in sorted(buckets):
        ranked = sorted(
            buckets[latency].items(),
            key=lambda item: (
                -mean([r.fairness for r in item[1]]),
                -mean([r.aggregate_mib_s for r in item[1]]),
            ),
        )
        for rank, (mechanism, cell_rows) in enumerate(ranked, start=1):
            rows.append(
                [
                    f"{latency:g}",
                    rank,
                    mechanism,
                    f"{mean([r.fairness for r in cell_rows]):.3f}",
                    f"{mean([r.aggregate_mib_s for r in cell_rows]):.1f}",
                    f"{mean([r.latency_p99_ms for r in cell_rows]):.1f}",
                    f"{mean([r.rule_lag_s for r in cell_rows]) * 1e3:.1f}",
                    f"{mean([r.overshoot_bytes for r in cell_rows]) / mib:.1f}",
                    f"{mean([r.reservation_util for r in cell_rows]):.2f}",
                ]
            )
    return format_table(
        [
            "ctrl lat s",
            "rank",
            "mechanism",
            "fairness",
            "MiB/s",
            "p99 ms",
            "lag ms",
            "overshoot MiB",
            "resv util",
        ],
        rows,
        title=(
            f"decentralization tax over scenario "
            f"{result.campaign.scenario!r} (ranked by fairness per "
            "control-plane latency)"
        ),
    )


def format_chaos_table(result: "CampaignResult") -> str:
    """Per-mechanism fault-tolerance comparison, ranked by recovery time.

    The chaos view of a campaign whose cells carry a fault: one row per
    mechanism (cells averaged), ordered fastest-recovering first with
    fairness-during-failure as the tiebreaker — the mechanism that both
    re-converges quickly and stays proportional while degraded wins.
    """
    buckets: "dict" = {}
    for outcome in result.outcomes:
        mechanism = outcome.params.get("mechanism", outcome.row.mechanism)
        buckets.setdefault(mechanism, []).append(outcome.row)

    def mean(values):
        return fold_sum(values) / len(values) if values else 0.0

    ranked = sorted(
        buckets.items(),
        key=lambda item: (
            mean([r.recovery_s for r in item[1]]),
            -mean([r.fairness_during for r in item[1]]),
        ),
    )
    rows = []
    for mechanism, cell_rows in ranked:
        rows.append(
            [
                mechanism,
                f"{mean([r.recovery_s for r in cell_rows]):.2f}",
                f"{mean([r.fairness_during for r in cell_rows]):.3f}",
                f"{mean([r.fairness_after for r in cell_rows]):.3f}",
                f"{mean([r.aggregate_mib_s for r in cell_rows]):.1f}",
                f"{mean([r.rpcs_dropped for r in cell_rows]):.0f}",
                f"{mean([r.rpcs_retried for r in cell_rows]):.0f}",
            ]
        )
    fault = result.campaign.base_params.get("fault") or next(
        (o.params["fault"] for o in result.outcomes if o.params.get("fault")),
        "?",
    )
    return format_table(
        [
            "mechanism",
            "recovery s",
            "fair during",
            "fair after",
            "MiB/s",
            "dropped",
            "retried",
        ],
        rows,
        title=(
            f"chaos shootout under fault {fault!r} over scenario "
            f"{result.campaign.scenario!r} (ranked by recovery time)"
        ),
    )
