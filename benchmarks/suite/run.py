#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/suite/run.py                  # 5 rounds of every workload
    python3 benchmarks/suite/run.py --trace          # ... plus the per-layer table
    python3 benchmarks/suite/run.py --compare A.json B.json
    python3 benchmarks/suite/run.py --workload swarm --seed 3 --seconds 10 --trace 0

Without ``--workload`` the suite runs every workload ``ROUNDS`` times,
round-robin, each run in a fresh child process (the single-workload form
below), prints every end-to-end metric with its median and quartiles, checks
the outputs, and writes ``BENCH_suite.json``.  With ``--trace`` it adds one
traced run per workload and records the per-layer table.

With ``--workload`` it makes one run of that workload: nine set-up probes,
each a fresh interpreter that imports the workload's modules and builds its
spec and cluster, then timed passes, each in a fresh child process, until
the next one would end after ``--seconds``.  A run always makes at least one
pass, so a workload whose pass is longer than ``--seconds`` measures one
pass.  ``--trace 1`` instead makes one untraced and one cProfile-traced pass
and reports the per-layer metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run's details.

Times are host-normalized: every probe and pass samples the host's speed
while it runs (:mod:`calibration`) and its seconds are scaled to the
reference host's, so that a shared host running Python slower for a while
does not read as a regression.  Raw times are in the details.

Metrics are declared in two places, each metric in exactly one.
``BENCHMARK.json`` at the repository root owns the metrics every run of
every workload reports in its result line, with their units and bounds; this
script reads it.  ``SUITE_METRICS`` and ``SUITE_LAYER_METRICS`` below own
the metrics that have a value on some workloads only (or read a fixed 0 or 1
when all is well); the result line cannot carry them, so only the details,
the suite and ``--compare`` report them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import calibration

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCE_JSON = SUITE_DIR / "reference.json"
DEFAULT_OUT = SUITE_DIR / "BENCH_suite.json"
#: Scratch space for stores, CSVs and temporary files; removed after a run
#: (and ignored by the ``.gitignore`` beside this file).
WORK_ROOT = SUITE_DIR / ".work"

#: Rounds of the suite: runs of each workload, round-robin.
ROUNDS = 5
#: Set-up probes per run; the median is reported.  One more runs first,
#: untimed, so byte-compilation of a fresh checkout is not measured.
SETUP_PROBES = 9
#: A run stops starting passes after this many, however short they are.
MAX_PASSES = 50

#: End-to-end metrics that BENCHMARK.json cannot declare: the shootout-only
#: ones, and the two whose value is fixed when all is well (the result line
#: carries them as ``failed`` and ``correct``).  The suite reports them and
#: ``--compare`` judges them with the bounds below.
SUITE_METRICS: Dict[str, Dict[str, Any]] = {
    "cells_per_s.jobs1": {"unit": "1/s", "better": "higher", "bound": 0.2},
    "cells_per_s.jobs2": {"unit": "1/s", "better": "higher", "bound": 0.2},
    "parallel_speedup": {"unit": "ratio", "better": "higher", "bound": 0.25},
    # Bound 0: any rise is a regression.
    "failed_frac": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "output_match": {"unit": "bool", "better": "higher", "bound": 0.0},
}
#: Per-layer metrics of layers only some workloads use (they read 0 on the
#: others), so BENCHMARK.json does not declare them; ``--trace`` runs
#: report them in the details and the suite's layer table.
SUITE_LAYER_METRICS: Dict[str, str] = {
    "campaigns.cell_wall_s.p50": "s",
    "campaigns.cell_wall_s.max": "s",
    "campaigns.plumbing_s": "s",
    "campaigns.worker_idle_frac": "ratio",
    "campaigns.store_commit_s": "s",
    "campaigns.reduce_s": "s",
    "experiments.export_s": "s",
}


class BenchError(Exception):
    """A run that cannot produce a result; reported on one line."""


def _load_json(path: Path) -> Dict[str, Any]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BenchError(f"{path} is missing") from None
    except ValueError as exc:
        raise BenchError(f"{path} is not valid JSON: {exc}") from None


def _quartiles(values: Sequence[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


# -- child processes -------------------------------------------------------


def _child_env(workdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    # Figure adapters switch to the paper's full size on this variable.
    env.pop("REPRO_FULL", None)
    # Set-up is measured from cached bytecode, as a user's repeated runs
    # see it; the warm-up probe writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _spawn(args: List[str], workdir: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + args,
        cwd=ROOT,
        env=_child_env(workdir),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        check=False,
    )


def _child_json(proc: subprocess.CompletedProcess, what: str) -> Dict[str, Any]:
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no output)"]
        raise BenchError(f"{what} exited with {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child_main(args: argparse.Namespace) -> int:
    """Body of a probe or pass child: set up, optionally run, print JSON."""
    sys.path.insert(0, str(SRC))
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[args.workload]
    size = SIZES[args.size][args.workload]
    workdir = Path(args.workdir)
    with calibration.HostSampler() as clock:
        prepared = workload.prepare(size, args.seed, workdir, clock)
    record: Dict[str, Any] = {
        "host_slices": clock.summary(),
        "import_s": prepared.import_s,
        "spec_build_s": prepared.spec_build_s,
        "cluster_build_s": prepared.cluster_build_s,
    }
    if args.child == "pass":
        record.update(_timed_pass(args, workload, size, workdir, prepared.state))
    print(json.dumps(record))
    return 0


def _timed_pass(args, workload, size, workdir: Path, state: Any) -> Dict[str, Any]:
    import resource

    from layers import count_simulations

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    with count_simulations() as sims, calibration.HostSampler() as clock:
        start = clock.mark()
        if profiler is not None:
            profiler.enable()
        try:
            output = workload.run(size, args.seed, workdir, state, clock)
        finally:
            if profiler is not None:
                profiler.disable()
            wall, raw_wall = clock.since(start), clock.raw_since(start)
    # ru_maxrss is in KiB on Linux; pool workers count once reaped.
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "host_slices": clock.summary(),
        "sim_s": sims["sim.sim_s"] + output.worker_sim_s,
        "attempted": output.attempted,
        "failed": output.failed,
        "digests": output.digests,
        "counters": {**output.counters, **sims},
        "timers": output.timers,
        "ratios": output.ratios,
        "peak_rss_mib": rss_kib / 1024.0,
    }
    if profiler is not None:
        import pstats

        from layers import rollup

        record["profile"], record["unresolved"] = rollup(
            pstats.Stats(profiler), str(PACKAGE)
        )
        for name in PROFILED_SECONDS:
            record["profile"][name] *= clock.scale()
    return record


# -- one run of one workload -----------------------------------------------


def _child_args(kind: str, args: argparse.Namespace, workdir: Path, profile=False):
    child = [
        "--child", kind, "--workload", args.workload, "--seed", str(args.seed),
        "--size", "smoke" if args.smoke else "full", "--workdir", str(workdir),
    ]
    return child + (["--profile"] if profile else [])


def _probe(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    probe_dir = workdir / "probe"
    start = time.perf_counter()
    proc = _spawn(_child_args("probe", args, probe_dir), workdir)
    wall = time.perf_counter() - start
    shutil.rmtree(probe_dir, ignore_errors=True)
    record = _child_json(proc, f"{args.workload} set-up probe")
    record["raw_setup_s"] = wall
    record["setup_s"] = calibration.normalize_setup(wall, record["host_slices"])
    return record


def _pass(args: argparse.Namespace, workdir: Path, index: int, profile=False):
    pass_dir = workdir / f"pass{index}"
    start = time.perf_counter()
    proc = _spawn(_child_args("pass", args, pass_dir, profile), workdir)
    elapsed = time.perf_counter() - start
    shutil.rmtree(pass_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, elapsed
    return _child_json(proc, f"{args.workload} pass"), elapsed


def _run_workload(args: argparse.Namespace, bench: Dict[str, Any]) -> Dict[str, Any]:
    """One benchmark run of ``args.workload``; returns detail and result."""
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {PACKAGE} is missing")
    reference = _load_json(REFERENCE_JSON)
    from workloads import check_outputs

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        _probe(args, workdir)  # warm-up: byte-compiles a fresh checkout
        probes = [_probe(args, workdir) for _ in range(SETUP_PROBES)]
        passes: List[Optional[Dict[str, Any]]] = []
        start = time.perf_counter()
        while len(passes) < (2 if args.trace else MAX_PASSES):
            profile = args.trace and len(passes) == 1
            record, elapsed = _pass(args, workdir, len(passes), profile)
            passes.append(record)
            if not args.trace and time.perf_counter() - start + elapsed > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_ROOT.rmdir()

    done = [p for p in passes if p is not None]
    if not done or (args.trace and len(done) < 2):
        raise BenchError(f"{args.workload}: no pass completed")
    size = "smoke" if args.smoke else "full"
    problems: List[str] = []
    for record in done:
        problems += check_outputs(args.workload, size, args.seed, record["digests"], reference)[1]
    first = done[0]
    if any(p["digests"] != first["digests"] or p["counters"] != first["counters"] for p in done):
        problems.append("passes disagree on outputs or counters")
    runs_per_pass = first["attempted"]
    attempted = runs_per_pass * len(passes)
    failed = sum(p["failed"] for p in done) + runs_per_pass * (len(passes) - len(done))
    if failed:
        problems.append(f"{failed} of {attempted} simulation runs failed")
    if args.trace and done[1]["unresolved"]:
        # Their counts and times would read 0, which looks like a gain.
        problems.append("profiled functions not found: " + ", ".join(done[1]["unresolved"]))
    untraced = done if not args.trace else done[:1]
    measured = {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "sim_s_per_wall_s": statistics.median(p["sim_s"] / p["wall_s"] for p in untraced),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in untraced),
        "failed_frac": failed / attempted,
        "output_match": 0 if problems else 1,
    }
    if args.workload == "shootout":
        for jobs in (1, 2):
            measured[f"cells_per_s.jobs{jobs}"] = statistics.median(
                p["counters"][f"cells.jobs{jobs}"] / p["timers"][f"wall_s.jobs{jobs}"]
                for p in untraced
            )
        measured["parallel_speedup"] = statistics.median(
            p["ratios"]["parallel_speedup"] for p in untraced
        )
    detail: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "trace": int(args.trace),
        "raw_pass_wall_s": [p["raw_wall_s"] if p else None for p in passes],
        "pass_host_slice_s": [p["host_slices"]["mean_s"] if p else None for p in passes],
        "raw_setup_s": [p["raw_setup_s"] for p in probes],
        "setup_host_slice_s": [p["host_slices"]["mean_s"] for p in probes],
        "end_to_end": measured,
        "counters": first["counters"],
        "digests": first["digests"],
        "problems": problems,
    }
    if args.trace:
        detail["per_layer"] = _per_layer(probes, done[0], done[1])
        detail["traced_counters"] = done[1]["counters"]
        detail["unresolved_functions"] = done[1]["unresolved"]
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
        source = detail["per_layer"]
    else:
        declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        source = measured
    missing = [name for name in declared if name not in source]
    if missing:
        raise BenchError(f"{args.workload}: no value for declared metrics {missing}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": source[name], "unit": unit} for name, unit in declared.items()},
    }
    return {"detail": detail, "result": result}


#: Per-layer seconds read from the profile of the traced pass.
PROFILED_SECONDS = (
    "core.observe_s", "core.apply_s", "metrics.summarize_s", "campaigns.reduce_s",
    "core.allocate_us_per_round",
)
PROFILED_OTHER = ("core.rounds", "core.rule_ops", "metrics.timeline_records")
#: Per-layer timings the harness takes around calls into a layer; a
#: workload that makes no such call reads 0.
HARNESS_SECONDS = (
    "campaigns.cell_wall_s.p50", "campaigns.cell_wall_s.max", "campaigns.plumbing_s",
    "campaigns.store_commit_s", "experiments.export_s",
)


def _per_layer(probes, untraced, traced) -> Dict[str, float]:
    """Per-layer metrics from the probes, the untraced and the traced pass."""
    prof = traced["profile"]
    sims = untraced["counters"]
    scheduled = sims["sim.events_scheduled"]
    dispatched = sims["sim.events_dispatched"]
    rpcs = prof["lustre.rpcs_completed"]
    layer = {k: v for k, v in prof.items() if k.endswith(".self_frac")}
    layer.update(
        {
            "sim.events_scheduled": scheduled,
            "sim.events_dispatched": dispatched,
            "sim.cancelled_frac": prof["sim.cancels"] / scheduled if scheduled else 0.0,
            "sim.event_objects": prof["sim.event_objects"],
            "sim.timeout_reuse_frac": prof["sim.timeout_reuse_frac"],
            "sim.resumes": prof["sim.resumes"],
            "sim.events_per_rpc": dispatched / rpcs if rpcs else 0.0,
            "lustre.rpcs_completed": rpcs,
            "lustre.nrs.polls_per_rpc": prof["lustre.nrs.polls"] / rpcs if rpcs else 0.0,
            "campaigns.worker_idle_frac": untraced["ratios"].get("campaigns.worker_idle_frac", 0.0),
            "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
        }
    )
    for key, phase in (
        ("setup.import_s", "import_s"),
        ("scenarios.spec_build_s", "spec_build_s"),
        ("cluster.build_s", "cluster_build_s"),
    ):
        layer[key] = statistics.median(p[phase] for p in probes)
    for key in PROFILED_SECONDS + PROFILED_OTHER:
        layer[key] = prof[key]
    for key in HARNESS_SECONDS:
        layer[key] = untraced["timers"].get(key, 0.0)
    return layer


def _workload_main(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    outcome = _run_workload(args, bench)
    print(json.dumps({"detail": outcome["detail"]}))
    print(json.dumps(outcome["result"]))
    return 0


# -- the whole suite -------------------------------------------------------


def _suite_run(name: str, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{name} run exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def _git_commit() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def _e2e_specs(bench: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update(SUITE_METRICS)
    return specs


def _suite_main(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    names = [w["name"] for w in bench["workloads"]]
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for round_ in range(ROUNDS):
        for name in names:
            run = _suite_run(name, args, trace=0)
            runs[name].append(run)
            sys.stderr.write(
                f"[{round_ + 1}/{ROUNDS}] {name}: "
                f"wall_s={run['detail']['end_to_end']['wall_s']:.3f} "
                f"correct={run['result']['correct']}\n"
            )
    traced = {}
    if args.trace:
        for name in names:
            traced[name] = _suite_run(name, args, trace=1)
            sys.stderr.write(f"[trace] {name}: correct={traced[name]['result']['correct']}\n")

    specs = _e2e_specs(bench)
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    layer_units.update(SUITE_LAYER_METRICS)
    report: Dict[str, Any] = {
        "schema": 1,
        "command": " ".join(["python3", "benchmarks/suite/run.py"] + sys.argv[1:]),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": _git_commit(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": ROUNDS,
        "size": "smoke" if args.smoke else "full",
        "calibration": {
            "reference_slice_s": calibration.REFERENCE_SLICE_S,
            "period_s": calibration.PERIOD_S,
            "slowdown_exponent": calibration.SLOWDOWN_EXPONENT,
        },
        "workloads": {},
    }
    ok = True
    for name in names:
        results = [run["result"] for run in runs[name]]
        if name in traced:
            results.append(traced[name]["result"])
        entry: Dict[str, Any] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "problems": sorted({p for run in runs[name] for p in run["detail"]["problems"]}),
            "end_to_end": {},
            "raw_pass_wall_s": [run["detail"]["raw_pass_wall_s"] for run in runs[name]],
            "pass_host_slice_s": [run["detail"]["pass_host_slice_s"] for run in runs[name]],
        }
        ok &= entry["correct"]
        for metric, spec in specs.items():
            samples = [run["detail"]["end_to_end"].get(metric) for run in runs[name]]
            if any(s is None for s in samples):
                continue
            entry["end_to_end"][metric] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                **_quartiles(samples), "samples": samples,
            }
        if name in traced:
            per_layer = traced[name]["detail"]["per_layer"]
            entry["per_layer"] = {
                metric: {"unit": unit, "value": per_layer[metric]}
                for metric, unit in layer_units.items()
            }
            entry["counters"] = traced[name]["detail"]["counters"]
        report["workloads"][name] = entry
    _print_report(report)
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nwritten: {out}")
    return 0 if ok else 1


def _print_report(report: Dict[str, Any]) -> None:
    for name, entry in report["workloads"].items():
        status = "outputs correct" if entry["correct"] else "OUTPUTS WRONG"
        print(f"\n== {name} ({status}; {entry['failed']}/{entry['attempted']} runs failed)")
        for problem in entry["problems"]:
            print(f"   problem: {problem}")
        for metric, stat in entry["end_to_end"].items():
            print(
                f"   {metric:22s} {stat['median']:>12.6g} {stat['unit']:6s}"
                f" [q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}; n={len(stat['samples'])}]"
            )
        for metric, stat in entry.get("per_layer", {}).items():
            print(f"   {metric:32s} {stat['value']:>14.6g} {stat['unit']}")


# -- comparing two suite results -------------------------------------------


def judge(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """Verdict for B against A: improved, unchanged, worse or unresolved.

    ``bound`` is the share of A's median by which B may be worse.  A spread
    (quartile distance over median) wider than the bound on either side is
    unresolved, unless every B sample beats every A sample.
    """
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = _quartiles(a), _quartiles(b)
    base = abs(qa["median"]) or 1.0
    change = sign * (qb["median"] - qa["median"]) / base  # > 0: B is worse
    if bound == 0.0:
        return "worse" if change > 0 else "improved" if change < 0 else "unchanged"
    spread = max(
        (q["q3"] - q["q1"]) / (abs(q["median"]) or 1.0) for q in (qa, qb)
    )
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > spread and all_better:
        return "improved"
    return "unchanged"


def _compare_main(paths: Sequence[str]) -> int:
    a, b = (_load_json(Path(p)) for p in paths)
    bench = _load_json(BENCHMARK_JSON)
    specs = _e2e_specs(bench)
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    worse = 0
    print(f"A = {paths[0]}\nB = {paths[1]}")
    print(f"{'workload':13s} {'metric':20s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s}  verdict")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, spec in specs.items():
            if metric not in wa["end_to_end"] or metric not in wb["end_to_end"]:
                continue
            sa, sb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            verdict = judge(sa["samples"], sb["samples"], spec["better"], spec["bound"])
            worse += verdict == "worse"
            cells = [
                f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]" for s in (sa, sb)
            ]
            print(f"{name:13s} {metric:20s} {cells[0]:>34s} {cells[1]:>34s}  {verdict}")
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        counts = [m for m, unit in layer_units.items() if unit == "count" and m in la and m in lb]
        changed = [m for m in counts if la[m]["value"] != lb[m]["value"]]
        if counts:
            print(
                f"{name:13s} per-layer counts: "
                + (f"changed: {', '.join(changed)}" if changed else f"all {len(counts)} identical")
            )
    print(f"\n{worse} worse")
    return 1 if worse else 0


# -- command line ----------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/suite/run.py",
        description="Run the repository benchmark (see README.md beside this file).",
    )
    parser.add_argument("--workload", help="make one run of this workload only")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): report per-layer metrics from a profiled pass",
    )
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="suite result file")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="judge suite result B against A with the declared bounds",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-long workload sizes, for the self-test; no reference check",
    )
    parser.add_argument("--child", choices=("probe", "pass"), help=argparse.SUPPRESS)
    parser.add_argument("--size", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--profile", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.child:
            return _child_main(args)
        if args.compare:
            return _compare_main(args.compare)
        bench = _load_json(BENCHMARK_JSON)
        if args.seconds is None:
            args.seconds = float(bench["run_seconds"])
        if args.workload:
            names = [w["name"] for w in bench["workloads"]]
            if args.workload not in names:
                raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
            return _workload_main(args, bench)
        return _suite_main(args, bench)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
