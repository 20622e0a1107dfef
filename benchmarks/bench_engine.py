"""Bench the simulation kernel: events/sec and simulated-sec per wall-sec.

The pytest face of the engine benchmark harness.  Every workload comes from
:mod:`engine_workloads` (shared with ``regression.py``, the standalone
regression gate), so the numbers here and in CI's ``BENCH_engine.json`` are
directly comparable:

* micro benches — pure-engine event loops (timer churn, event handoffs,
  condition fan-in);
* scenario benches — the ``quickstart`` paper workload plus ``client-swarm``
  grid cells at (OST × client) scale points.

The events/sec numerator is *scheduled* events (``Environment.scheduled``):
the determinism invariant fixes the schedule for a given workload, so the
count is engine-version-independent and ratios equal wall-clock ratios.

Emits ``BENCH_engine.json`` (to the invocation directory or
``$BENCH_JSON_DIR``).  For the baseline-gated variant, run
``python benchmarks/regression.py`` instead; to refresh the committed
baselines after a deliberate speedup, ``regression.py --update-baseline``.
"""

import json
import os
from pathlib import Path

import pytest

from engine_workloads import (
    GRID_QUICK,
    MICRO_BENCHES,
    SCENARIO_BENCHES,
    calibrate,
    run_cell,
    run_micro,
    run_scenario_bench,
)

_RESULTS = {"micro": {}, "scenarios": {}, "cells": {}}


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json():
    """Write BENCH_engine.json after the module's benches finish."""
    yield
    _RESULTS["calibration_ops_per_s"] = calibrate()
    out = Path(os.environ.get("BENCH_JSON_DIR", ".")) / "BENCH_engine.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", sorted(MICRO_BENCHES))
def test_micro_bench(name, benchmark, print_report):
    result = benchmark.pedantic(
        run_micro, args=(name,), kwargs={"repeats": 3}, rounds=1, iterations=1
    )
    _RESULTS["micro"][name] = result
    assert result["events"] > 0
    assert result["events_per_s"] > 0
    print_report(
        f"micro/{name}: {result['events_per_s']:,.0f} events/s "
        f"({result['events']:,.0f} events in {result['wall_s']:.3f}s)"
    )


@pytest.mark.parametrize("name", sorted(SCENARIO_BENCHES))
def test_scenario_bench(name, benchmark, print_report):
    result = benchmark.pedantic(
        run_scenario_bench, args=(name,), rounds=1, iterations=1
    )
    _RESULTS["scenarios"][name] = result
    assert result["events"] > 0
    assert result["simsec_per_wallsec"] > 0
    print_report(
        f"scenario/{name}: {result['events_per_s']:,.0f} events/s, "
        f"{result['simsec_per_wallsec']:.2f} sim-s/wall-s"
    )


@pytest.mark.parametrize("cell", GRID_QUICK, ids=lambda c: f"{c[0]}x{c[1]}")
def test_grid_cell(cell, benchmark, print_report):
    n_osts, n_clients = cell
    result = benchmark.pedantic(
        run_cell, args=(n_osts, n_clients), rounds=1, iterations=1
    )
    _RESULTS["cells"][f"{n_osts}x{n_clients}"] = result
    assert result["events"] > 0
    # The cell must actually simulate the configured horizon.
    assert result["sim_s"] == pytest.approx(0.5)
    print_report(
        f"cell/{n_osts}x{n_clients}: {result['events_per_s']:,.0f} events/s, "
        f"{result['simsec_per_wallsec']:.2f} sim-s/wall-s"
    )


def test_event_counts_are_deterministic():
    """The events/sec numerator is workload-intrinsic: two runs of the same
    workload must schedule exactly the same number of events."""
    first = run_micro("timer-wheel", repeats=1)
    second = run_micro("timer-wheel", repeats=1)
    assert first["events"] == second["events"]
    a = run_cell(10, 100, repeats=1)
    b = run_cell(10, 100, repeats=1)
    assert a["events"] == b["events"]
