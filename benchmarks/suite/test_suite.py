"""Self-test of the benchmark suite (outside the tier-1 ``testpaths``).

Run explicitly from the repository root::

    python -m pytest benchmarks/suite/test_suite.py -q

Each workload runs at its seconds-long ``--smoke`` size, untraced and
traced, so the whole file takes about a minute.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
RUN = SUITE_DIR / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path.insert(0, str(SUITE_DIR))
import run as suite  # noqa: E402

#: Names the roadmap's clean-ups delete (the array backend, the
#: pre-pipeline shims, the per-family handle properties); the suite must
#: not depend on any of them.
DELETED_APIS = {
    "ArrayBackend", "available_backends", "batch_timeouts", "timeouts",
    "ClusterConfig", "build_cluster", "run_experiment", "from_scenario",
    "LEGACY_COMMANDS", "AdapTbf", "adaptbf", "controllers", "static_rates",
    "history", "rule_lag_s", "overshoot_bytes", "reservation_util",
}


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    common = ("--workload", request.param, "--seed", "1", "--seconds", "1", "--smoke")
    return {trace: _run(*common, "--trace", str(trace)) for trace in (0, 1)}


def test_every_declared_metric_is_emitted(runs):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = runs[trace]["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in BENCH[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
    assert set(suite.SUITE_LAYER_METRICS) <= set(runs[1]["detail"]["per_layer"])


def test_traced_and_untraced_counters_are_equal(runs):
    detail = runs[1]["detail"]
    assert detail["problems"] == []
    assert detail["unresolved_functions"] == []
    assert detail["counters"] == detail["traced_counters"]
    assert detail["counters"] == runs[0]["detail"]["counters"]
    assert detail["counters"]["sim.events_dispatched"] > 0


def test_names_are_well_formed():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += list(suite.SUITE_METRICS) + list(suite.SUITE_LAYER_METRICS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert set(BENCH["paths"]) == {"benchmarks/suite"}


def test_suite_uses_no_deleted_api():
    for path in sorted(SUITE_DIR.glob("*.py")):
        if path.name == "test_suite.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used |= {a.name.split(".")[-1] for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not used & DELETED_APIS, (path.name, sorted(used & DELETED_APIS))
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            assert "backend" not in {k.arg for k in call.keywords}, path.name


def test_host_sampler_samples_the_block_and_its_forks():
    import calibration

    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    handler = signal.getsignal(signal.SIGALRM)
    with calibration.HostSampler() as clock:
        start = clock.mark()
        spin(0.2)
        pid = os.fork()
        if pid == 0:
            spin(0.2)
            os._exit(0)
        os.waitpid(pid, 0)
        forked, _ = clock._fork_totals()
        elapsed, raw = clock.since(start), clock.raw_since(start)
    assert len(clock.slices) == len(clock.speeds) >= 5
    assert forked >= 5
    assert 0 < elapsed and raw > 0.4
    assert signal.getsignal(signal.SIGALRM) is handler


def test_judge_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert suite.judge(base, [1.0, 1.01, 1.0, 0.99, 1.01], "lower", 0.1) == "unchanged"
    assert suite.judge(base, [1.2, 1.21, 1.19, 1.2, 1.22], "lower", 0.1) == "worse"
    assert suite.judge(base, [0.8, 0.81, 0.79, 0.8, 0.82], "lower", 0.1) == "improved"
    assert suite.judge(base, [0.5, 1.5, 1.0, 0.7, 1.3], "lower", 0.1) == "unresolved"
    assert suite.judge(base, [0.8, 0.81, 0.79, 0.8, 0.82], "higher", 0.1) == "worse"
    assert suite.judge([0.0] * 3, [0.1] * 3, "lower", 0.0) == "worse"


def test_compare_fails_on_a_regression(tmp_path):
    def result(wall):
        stat = {"unit": "s", "better": "lower", "bound": 0.1, "samples": wall,
                **suite._quartiles(wall)}
        return {"workloads": {"swarm": {"end_to_end": {"wall_s": stat}}}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result([1.0, 1.0, 1.01])))
    b.write_text(json.dumps(result([1.5, 1.5, 1.51])))
    assert suite.main(["--compare", str(a), str(a)]) == 0
    assert suite.main(["--compare", str(a), str(b)]) == 1


def _copy_suite(tmp_path: Path) -> Path:
    """BENCHMARK.json and this directory, alone in ``tmp_path``."""
    (tmp_path / "benchmarks").mkdir()
    copy = tmp_path / "benchmarks" / "suite"
    shutil.copytree(SUITE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return copy


def _run_in(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--seed", "1", "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=180, check=False,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_suite(tmp_path)
    proc = _run_in(tmp_path, "--workload", "swarm", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_renamed_profiled_function_fails_the_run(tmp_path):
    layers = _copy_suite(tmp_path) / "layers.py"
    layers.write_text(layers.read_text().replace("Process._resume", "Process._renamed"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = _run_in(tmp_path, "--workload", "swarm", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"] is False
    problems = json.loads(lines[-2])["detail"]["problems"]
    assert problems == ["profiled functions not found: repro.sim.process:Process._renamed"]
