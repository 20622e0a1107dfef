"""Reproducible campaign artifacts: manifest + rows as JSON and CSV.

One campaign run writes four files into its output directory:

``manifest.json``
    The campaign declaration (canonical form + spec hash) and every cell's
    identity: axis parameters, the full factory kwargs the cell resolved
    with, its derived seed, and a ready-to-paste ``rerun`` command — any
    cell is re-runnable standalone without the campaign engine.
``rows.json``
    The aggregated :class:`~repro.campaigns.aggregate.CellRow` per cell
    plus the cross-cell summary.  Fully deterministic: byte-identical for
    ``--jobs 1`` and ``--jobs N`` runs of the same campaign.
``rows.csv``
    The same rows flattened for spreadsheets/pandas (axis-parameter
    columns, scalar metrics, one ``mib_s:<job>`` column per job).
``timing.json``
    Everything wall-clock — per-cell and total wall time, worker count,
    cells/second — quarantined here so the deterministic files stay
    comparable across runs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Union

from repro.campaigns.executor import CampaignResult, CellOutcome
from repro.campaigns.spec import CampaignCell

__all__ = ["write_artifacts", "rerun_command"]


def rerun_command(result: CampaignResult, outcome: CellOutcome) -> str:
    """The standalone CLI invocation reproducing one cell's run."""
    campaign = result.campaign
    cell = CampaignCell(
        index=outcome.index, params=outcome.params, seed=outcome.seed
    )
    parts = [f"python -m repro.experiments run {campaign.scenario}"]
    build_params = campaign.build_params(cell)
    # Policy- and workload-level parameters have dedicated CLI flags,
    # not --param.
    mechanism = build_params.pop("mechanism", None)
    mechanism_params = build_params.pop("mechanism_params", None) or {}
    if mechanism is not None:
        parts.append(f"--mechanism {mechanism}")
    for key in sorted(mechanism_params):
        parts.append(f"--mechanism-param {key}={mechanism_params[key]}")
    workload = build_params.pop("workload", None)
    if workload is not None:
        parts.append(f"--workload {workload}")
    fault = build_params.pop("fault", None)
    fault_params = build_params.pop("fault_params", None) or {}
    if fault is not None:
        parts.append(f"--fault {fault}")
        for key in sorted(fault_params):
            parts.append(f"--fault-param {key}={fault_params[key]}")
    for key in sorted(build_params):
        parts.append(f"--param {key}={build_params[key]}")
    return " ".join(parts)


def _dump(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _manifest(result: CampaignResult) -> Dict:
    campaign = result.campaign
    return {
        "campaign": campaign.to_json_dict(),
        "spec_hash": campaign.spec_hash(),
        "n_cells": len(result.outcomes),
        "cells": [
            {
                "index": outcome.index,
                "seed": outcome.seed,
                "params": dict(outcome.params),
                "build_params": campaign.build_params(
                    CampaignCell(
                        index=outcome.index,
                        params=outcome.params,
                        seed=outcome.seed,
                    )
                ),
                "rerun": rerun_command(result, outcome),
            }
            for outcome in result.outcomes
        ],
    }


def _rows(result: CampaignResult) -> Dict:
    return {
        "campaign": result.campaign.name,
        "spec_hash": result.campaign.spec_hash(),
        "rows": [
            {
                "index": outcome.index,
                "seed": outcome.seed,
                "params": dict(outcome.params),
                **outcome.row.as_dict(),
            }
            for outcome in result.outcomes
        ],
        "summary": result.summary().as_dict(),
    }


def _timing(result: CampaignResult) -> Dict:
    return {
        "jobs": result.jobs,
        "wall_s": result.wall_s,
        # Executed vs skipped distinguishes a resumed run: cells_per_s
        # counts only the cells this invocation actually simulated.
        "executed": result.executed,
        "skipped": result.skipped,
        "cells_per_s": result.cells_per_s,
        "cells": [
            {"index": outcome.index, "wall_s": outcome.wall_s}
            for outcome in result.outcomes
        ],
    }


def _write_csv(path: Path, result: CampaignResult) -> None:
    param_names: List[str] = sorted(
        {name for outcome in result.outcomes for name in outcome.params}
    )
    job_ids: List[str] = sorted(
        {
            job
            for outcome in result.outcomes
            for job in outcome.row.per_job_mib_s
        }
    )
    scalar_fields = [
        "scenario",
        "mechanism",
        "duration_s",
        "clients_finished",
        "aggregate_mib_s",
        "fairness",
        "ost_utilization",
        "rpcs_completed",
        "latency_p50_ms",
        "latency_p95_ms",
        "latency_p99_ms",
        "rules_created",
        "rules_stopped",
        "rate_changes",
        "rule_churn",
        "rounds_run",
        "rule_lag_s",
        "overshoot_bytes",
        "reservation_util",
    ]
    header = (
        ["index", "seed"]
        + param_names
        + scalar_fields
        + [f"mib_s:{job}" for job in job_ids]
    )
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for outcome in result.outcomes:
            row_dict = outcome.row.as_dict()
            writer.writerow(
                [outcome.index, outcome.seed]
                + [outcome.params.get(name, "") for name in param_names]
                + [row_dict[field] for field in scalar_fields]
                + [
                    outcome.row.per_job_mib_s.get(job, "")
                    for job in job_ids
                ]
            )


def write_artifacts(
    result: CampaignResult, out_dir: Union[str, Path]
) -> Dict[str, Path]:
    """Write the four artifact files under ``out_dir``; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "manifest": out / "manifest.json",
        "rows": out / "rows.json",
        "csv": out / "rows.csv",
        "timing": out / "timing.json",
    }
    _dump(paths["manifest"], _manifest(result))
    _dump(paths["rows"], _rows(result))
    _write_csv(paths["csv"], result)
    _dump(paths["timing"], _timing(result))
    return paths
