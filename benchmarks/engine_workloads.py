"""Workload definitions for the engine regression gate.

:mod:`regression` (the standalone regression gate CI runs) measures its
workloads from this module, and writes them to ``BENCH_engine.json``.

**The events/sec metric.**  Every bench reports *scheduled events per
wall-second*: the engine's total heap pushes (``Environment.scheduled``)
divided by the wall time of the run.  Scheduling order — and therefore the
scheduled-event *count* — is the engine's determinism invariant (same
``(time, priority, seq)`` total order for a given workload across engine
versions), so the numerator is a property of the workload alone and the
events/sec ratio between two engine versions equals their wall-clock
ratio.  Counting *dispatched* events instead would let an optimization
that skips work (lazy-cancelled wakeups) look like a slowdown.

Three workload families:

* **Micro benches** — pure-engine event loops (timers, event handoffs,
  condition fan-in) with no Lustre models attached.  These isolate the
  dispatch loop, ``Timeout`` construction and the condition-event
  machinery.
* **Scenario benches** — full AdapTBF scenario runs (the ``quickstart``
  paper workload, plus ``client-swarm`` grid cells at OST×client scale
  points).  Only :func:`~repro.cluster.experiment.execute` is timed — the
  cluster build is identical work under any engine and would dilute the
  signal.  Cells also report **simulated-seconds per wall-second**.
* **Shootout** — wall-clock of the ``workload-shootout`` campaign, the
  end-to-end ≥1.5× target of the performance overhaul.

A **calibration loop** (fixed heap+dict work, no engine) measures the host's
raw Python speed.  The regression gate compares *normalized* scores —
``events_per_s / calibration_ops_per_s`` — so a slower CI machine does not
read as an engine regression; see docs/performance.md.
"""

from __future__ import annotations

import sys
import time
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:  # allow `python benchmarks/regression.py` without env
    sys.path.insert(0, SRC)

from repro.sim.engine import Environment  # noqa: E402

__all__ = [
    "MICRO_BENCHES",
    "SCENARIO_BENCHES",
    "GRID_QUICK",
    "GRID_FULL",
    "calibrate",
    "run_micro",
    "run_scenario_bench",
    "run_cell",
    "run_shootout",
]


def _scheduled(env: Environment) -> int:
    """Scheduled-event count; tolerant of pre-overhaul engines (no property)."""
    return getattr(env, "scheduled", None) or env._eid


# -- calibration ------------------------------------------------------------

def calibrate(ops: int = 400_000) -> float:
    """Raw host speed in calibration-ops/second (fixed heap+dict loop).

    The loop mirrors the engine's dominant primitive mix (heap push/pop and
    dict traffic) without touching the engine, so its throughput moves with
    the interpreter and the machine — exactly the variance the regression
    gate wants to divide away.
    """
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(ops):
        heappush(heap, ((i * 2654435761) & 0xFFFF, i))
        table[i & 1023] = i
        if i & 1:
            heappop(heap)
    elapsed = time.perf_counter() - start
    return ops / elapsed


# -- micro benches -----------------------------------------------------------

def _timer_wheel(env: Environment, scale: float) -> None:
    """Pure timeout churn: ``Timeout`` construction and the dispatch loop."""
    n_procs = max(1, int(200 * scale))
    ticks = 60

    def ticker(i: int):
        delay = 0.001 + (i % 7) * 0.0005
        for _ in range(ticks):
            yield env.timeout(delay)

    for i in range(n_procs):
        env.process(ticker(i))


def _producer_consumer(env: Environment, scale: float) -> None:
    """Event handoffs between process pairs: succeed → resume chains."""
    n_pairs = max(1, int(150 * scale))
    items = 60

    def producer(mailbox):
        for k in range(items):
            yield env.timeout(0.002)
            mailbox.pop().succeed(k)

    def consumer(mailbox):
        for _ in range(items):
            box = env.event()
            mailbox.append(box)
            yield box

    for _ in range(n_pairs):
        mailbox: list = []
        env.process(consumer(mailbox))
        env.process(producer(mailbox))


def _fanin(env: Environment, scale: float) -> None:
    """Condition pressure: AnyOf/AllOf over timeout fans."""
    n_waiters = max(1, int(80 * scale))
    width, rounds = 8, 30

    def waiter(i: int):
        for _ in range(rounds):
            events = [
                env.timeout(0.001 + (j % 3) * 0.0007) for j in range(width)
            ]
            yield env.any_of(events)
            yield env.all_of(events)

    for i in range(n_waiters):
        env.process(waiter(i))


#: name → setup(env, scale); scale stretches the process population.
MICRO_BENCHES: Dict[str, Callable[[Environment, float], None]] = {
    "timer-wheel": _timer_wheel,
    "producer-consumer": _producer_consumer,
    "fanin": _fanin,
}


def run_micro(name: str, scale: float = 1.0, repeats: int = 5) -> Dict[str, float]:
    """Run micro bench ``name``; best-of-``repeats`` events/second.

    Best-of is the right statistic for a regression gate: scheduling noise
    only ever makes a run *slower*, so the fastest observation is the
    closest to the code's true cost.
    """
    best_rate = 0.0
    events = sim_s = wall_best = 0.0
    setup = MICRO_BENCHES[name]
    for _ in range(repeats):
        env = Environment()
        setup(env, scale)
        start = time.perf_counter()
        env.run()
        wall = time.perf_counter() - start
        rate = _scheduled(env) / wall
        if rate > best_rate:
            best_rate = rate
            events, sim_s, wall_best = _scheduled(env), env.now, wall
    return {
        "events": events,
        "wall_s": wall_best,
        "events_per_s": best_rate,
        "sim_s": sim_s,
    }


# -- scenario benches --------------------------------------------------------

#: Registered scenarios benched end-to-end: name → build params.
SCENARIO_BENCHES: Dict[str, Dict] = {
    "quickstart": {},
}


def run_scenario_bench(name: str, repeats: int = 3) -> Dict[str, float]:
    """Bench one registered scenario; only ``execute`` is timed."""
    from repro.cluster.builder import build
    from repro.cluster.experiment import execute
    from repro.scenarios import REGISTRY

    params = SCENARIO_BENCHES[name]
    best_rate = 0.0
    events = sim_s = wall_best = 0.0
    for _ in range(repeats):
        cluster = build(REGISTRY.build(name, **params))
        start = time.perf_counter()
        execute(cluster)
        wall = time.perf_counter() - start
        env = cluster.env
        rate = _scheduled(env) / wall
        if rate > best_rate:
            best_rate = rate
            events, sim_s, wall_best = _scheduled(env), env.now, wall
    return {
        "events": events,
        "wall_s": wall_best,
        "events_per_s": best_rate,
        "sim_s": sim_s,
        "simsec_per_wallsec": sim_s / wall_best,
    }


#: (n_osts, n_clients) grid — full sweep (≈ a minute on a laptop).
GRID_FULL: List[Tuple[int, int]] = [
    (10, 100),
    (10, 1000),
    (10, 10000),
    (100, 100),
    (100, 1000),
    (100, 10000),
    (500, 100),
    (500, 1000),
    (500, 10000),
]

#: Quick subset for CI and pre-commit runs.
GRID_QUICK: List[Tuple[int, int]] = [(10, 100), (10, 1000), (100, 1000)]


def run_cell(
    n_osts: int,
    n_clients: int,
    duration_s: float = 0.5,
    repeats: int = 3,
) -> Dict[str, float]:
    """One scenario grid cell: ``n_clients`` swarm clients on ``n_osts`` OSTs.

    Uses the ``client-swarm`` registration (which scales both axes); wide
    cells exercise the same machinery ``scale-500ost`` registers for
    interactive use.  Returns events/sec and simulated-sec per wall-sec.
    """
    from repro.cluster.builder import build
    from repro.cluster.experiment import execute
    from repro.scenarios import REGISTRY

    best_rate = 0.0
    events = sim_s = wall_best = 0.0
    for _ in range(repeats):
        spec = REGISTRY.build(
            "client-swarm",
            n_clients=n_clients,
            n_jobs=min(8, n_clients),
            n_osts=n_osts,
            io_threads=4 if n_osts >= 100 else 16,
            duration=duration_s,
        )
        cluster = build(spec)
        start = time.perf_counter()
        execute(cluster)
        wall = time.perf_counter() - start
        env = cluster.env
        rate = _scheduled(env) / wall
        if rate > best_rate:
            best_rate = rate
            events, sim_s, wall_best = _scheduled(env), env.now, wall
    return {
        "n_osts": n_osts,
        "n_clients": n_clients,
        "events": events,
        "wall_s": wall_best,
        "events_per_s": best_rate,
        "sim_s": sim_s,
        "simsec_per_wallsec": sim_s / wall_best,
    }


# -- end-to-end wall-clock reference ----------------------------------------

def run_shootout(jobs: int = 1) -> Dict[str, float]:
    """Wall-clock the ``workload-shootout`` campaign (the ISSUE's ≥1.5× end-
    to-end target); heavier than the grid cells, used by ``--full`` runs."""
    from repro.campaigns import CAMPAIGNS, run_campaign

    campaign = CAMPAIGNS.build("workload-shootout")
    start = time.perf_counter()
    result = run_campaign(campaign, jobs=jobs)
    wall = time.perf_counter() - start
    return {
        "cells": float(len(result.outcomes)),
        "wall_s": wall,
        "cells_per_s": len(result.outcomes) / wall,
    }
