#!/usr/bin/env python3
"""Benchmark-regression runner: measure the engine, gate against baselines.

Runs the workloads defined in :mod:`engine_workloads`, emits a unified
``BENCH_engine.json`` (events/sec for the micro benches, events/sec +
simulated-sec/wall-sec for the scenario grid cells), and compares the
results against the committed ``benchmarks/baselines.json``:

* each measurement is **normalized by a calibration loop** (raw host
  Python speed), so a slower CI machine is divided away before comparison;
* a normalized score more than ``--tolerance`` (default: the baseline
  file's ``tolerance``, 0.15) below its baseline **fails the run** with a
  non-zero exit code — that is the CI regression gate;
* speedups against the recorded *pre-overhaul* engine are reported for
  the perf trajectory.

Usage::

    python benchmarks/regression.py --quick          # CI gate (~15 s)
    python benchmarks/regression.py --full           # full grid + shootout
    python benchmarks/regression.py --update-baseline  # after a speedup lands

See docs/performance.md for how to read the output and when to update the
baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from engine_workloads import (
    GRID_FULL,
    GRID_QUICK,
    MICRO_BENCHES,
    SCENARIO_BENCHES,
    calibrate,
    run_cell,
    run_micro,
    run_scenario_bench,
    run_shootout,
)

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_BASELINES = BENCH_DIR / "baselines.json"

#: Gated baselines are recorded at this fraction of the measured best, so
#: the regression gate trips on real slowdowns rather than host jitter.
NOISE_FLOOR = 0.80


def cell_key(n_osts: int, n_clients: int) -> str:
    return f"{n_osts}x{n_clients}"


def collect(mode: str, repeats: int = 5) -> Dict:
    """Measure every workload of ``mode`` ("quick" or "full")."""
    grid = GRID_FULL if mode == "full" else GRID_QUICK
    results: Dict = {
        "schema": 1,
        "mode": mode,
        "calibration_ops_per_s": calibrate(),
        "micro": {},
        "scenarios": {},
        "cells": {},
    }
    for name in MICRO_BENCHES:
        results["micro"][name] = run_micro(name, repeats=repeats)
    scenario_repeats = max(3, repeats // 2 + 1)
    for name in SCENARIO_BENCHES:
        results["scenarios"][name] = run_scenario_bench(
            name, repeats=scenario_repeats
        )
    for n_osts, n_clients in grid:
        results["cells"][cell_key(n_osts, n_clients)] = run_cell(
            n_osts, n_clients, repeats=scenario_repeats
        )
    if mode == "full":
        results["shootout"] = run_shootout(jobs=1)
    return results


def apply_baseline(results: Dict, baselines: Optional[Dict], tolerance: Optional[float]) -> Dict:
    """Annotate ``results`` with baseline ratios and evaluate the gate."""
    gate: Dict = {"passed": True, "failures": [], "checked": 0}
    results["gate"] = gate
    if not baselines:
        gate["note"] = "no baselines available; gate skipped"
        return results

    tol = tolerance if tolerance is not None else baselines.get("tolerance", 0.15)
    gate["tolerance"] = tol
    base_cal = baselines.get("calibration_ops_per_s") or 0.0
    cal = results["calibration_ops_per_s"]
    # >1 means this host runs raw Python faster than the baseline host did.
    machine_factor = (cal / base_cal) if base_cal else 1.0
    results["machine_factor"] = machine_factor

    def check(section: str, name: str, measured: Dict, base: Dict) -> None:
        base_rate = base.get("events_per_s")
        if not base_rate:
            return
        ratio = measured["events_per_s"] / (base_rate * machine_factor)
        measured["baseline_events_per_s"] = base_rate
        measured["ratio_vs_baseline"] = ratio
        pre = base.get("pre_overhaul_events_per_s")
        if pre:
            measured["speedup_vs_pre_overhaul"] = measured["events_per_s"] / (
                pre * machine_factor
            )
        gate["checked"] += 1
        if ratio < 1.0 - tol:
            gate["passed"] = False
            gate["failures"].append(
                f"{section}:{name} regressed to {ratio:.2f}x of baseline "
                f"({measured['events_per_s']:,.0f} vs {base_rate:,.0f} ev/s, "
                f"machine factor {machine_factor:.2f})"
            )

    for section in ("micro", "scenarios", "cells"):
        for name, measured in results[section].items():
            base = baselines.get(section, {}).get(name)
            if base:
                check(section, name, measured, base)
    return results


def to_baseline(results: Dict, previous: Optional[Dict]) -> Dict:
    """Distill a run into a committable baselines.json payload.

    Pre-overhaul reference numbers (the perf-trajectory anchor) are carried
    over from the previous baseline file — a new recording never silently
    drops them.
    """
    baseline: Dict = {
        "schema": 1,
        "tolerance": (previous or {}).get("tolerance", 0.15),
        "calibration_ops_per_s": results["calibration_ops_per_s"],
        "micro": {},
        "scenarios": {},
        "cells": {},
    }
    for section in ("micro", "scenarios", "cells"):
        for name, measured in results[section].items():
            entry = {
                "events_per_s": measured["events_per_s"] * NOISE_FLOOR,
                "session_best_events_per_s": measured["events_per_s"],
            }
            if "simsec_per_wallsec" in measured:
                entry["simsec_per_wallsec"] = measured["simsec_per_wallsec"]
            prev = (previous or {}).get(section, {}).get(name) or {}
            if prev.get("pre_overhaul_events_per_s"):
                entry["pre_overhaul_events_per_s"] = prev[
                    "pre_overhaul_events_per_s"
                ]
            baseline[section][name] = entry
    if "note" in (previous or {}):
        baseline["note"] = previous["note"]
    return baseline


def report(results: Dict) -> str:
    lines = [
        f"engine benchmark ({results['mode']}): "
        f"calibration {results['calibration_ops_per_s']:,.0f} ops/s"
    ]
    for section, prefix in (
        ("micro", "micro"),
        ("scenarios", "scenario"),
        ("cells", "cell"),
    ):
        for name, m in results[section].items():
            extra = ""
            if "simsec_per_wallsec" in m:
                extra = f"  {m['simsec_per_wallsec']:>7.2f} sim-s/wall-s"
            if "speedup_vs_pre_overhaul" in m:
                extra += f"  [{m['speedup_vs_pre_overhaul']:.2f}x vs pre-overhaul]"
            if "ratio_vs_baseline" in m:
                extra += f"  ({m['ratio_vs_baseline']:.2f}x of baseline)"
            label = f"{prefix}/{name}"
            lines.append(f"  {label:<24} {m['events_per_s']:>12,.0f} ev/s{extra}")
    if "shootout" in results:
        s = results["shootout"]
        lines.append(
            f"  shootout (jobs=1)      {s['wall_s']:.2f} s wall, "
            f"{s['cells_per_s']:.2f} cells/s"
        )
    gate = results["gate"]
    if gate.get("note"):
        lines.append(f"gate: {gate['note']}")
    elif gate["passed"]:
        lines.append(
            f"gate: PASS ({gate['checked']} metrics within "
            f"{gate['tolerance']:.0%} of baseline)"
        )
    else:
        lines.append("gate: FAIL")
        for failure in gate["failures"]:
            lines.append(f"  - {failure}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true", help="micro benches + small grid (CI)"
    )
    mode.add_argument(
        "--full", action="store_true", help="full grid + campaign shootout"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINES,
        help="baseline file to gate against (default: benchmarks/baselines.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional regression (default: baseline file's, 0.15)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for BENCH_engine.json (default: $BENCH_JSON_DIR or .)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="best-of repeats per micro bench"
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from this run instead of gating",
    )
    args = parser.parse_args(argv)

    run_mode = "full" if args.full else "quick"
    previous = None
    if args.baseline.exists():
        previous = json.loads(args.baseline.read_text())

    results = collect(run_mode, repeats=args.repeats)
    apply_baseline(results, None if args.update_baseline else previous, args.tolerance)

    out_dir = args.out or Path(os.environ.get("BENCH_JSON_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "BENCH_engine.json"
    out_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    print(report(results))
    print(f"\nBENCH_engine.json written to {out_path}")

    if args.update_baseline:
        payload = to_baseline(results, previous)
        args.baseline.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline updated: {args.baseline}")
        return 0

    return 0 if results["gate"]["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
