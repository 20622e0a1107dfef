"""The CLI, the figure adapters and campaigns run without loading numpy.

numpy serves exactly two computations: drawing from a stochastic stream
(``RngStreams.get``) and the overhead experiment's linear fit.  Everything
else, start-up included, is stdlib-only, so a deterministic run neither
pays numpy's import time and memory nor fails where it is not installed.

Each command runs in a fresh interpreter under a meta-path finder that
records (never blocks) every attempt to import numpy.  Forked campaign
workers inherit the finder, so an import in a worker is caught too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import overhead
from repro.sim.rng import RngStreams

DRIVER = """
import importlib.abc, os, sys

class NumpyWitness(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            with open(os.environ["NUMPY_WITNESS"], "a") as out:
                out.write(f"pid {os.getpid()} imported {name}\\n")
        return None

sys.meta_path.insert(0, NumpyWitness())
from repro.experiments.__main__ import main
status = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded
sys.exit(status)
"""

COMMANDS = {
    "list": ["list"],
    "quickstart": ["run", "quickstart", "--duration", "1", "--csv", "{out}"],
    "fig5": ["run", "fig5", "--csv", "{out}"],
    "mechanism-shootout": [
        "campaign",
        "run",
        "mechanism-shootout",
        "--jobs",
        "2",
        "--param",
        "scenario=redistribution",
        "--param",
        "data_scale=0.08",
        "--param",
        "time_scale=0.08",
        "--out",
        "{out}",
    ],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_never_imports_numpy(command, tmp_path):
    witness = tmp_path / "numpy-imports.txt"
    out = tmp_path / "out"
    args = [arg.format(out=out) for arg in COMMANDS[command]]
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, *args],
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": str(src),
            "NUMPY_WITNESS": str(witness),
        },
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert not witness.exists(), witness.read_text()
    if "{out}" in COMMANDS[command]:
        assert any(out.iterdir())


def test_numpy_users_raise_one_line_import_error_without_numpy(monkeypatch):
    """The two computations that need numpy say so in one line."""
    monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy fails
    with pytest.raises(ImportError) as exc:
        RngStreams(0).get("x")
    assert str(exc.value) == (
        "stochastic streams require numpy (install repro[fast]); "
        "the simulation kernel itself runs without it"
    )
    result = overhead.OverheadResult(
        [4, 16], {4: 1e-4, 16: 4e-4}, {4: 25.0, 16: 25.0}
    )
    with pytest.raises(ImportError) as exc:
        overhead.check_shapes(result)
    assert str(exc.value) == (
        "overhead's linear fits require numpy (install repro[fast]); "
        "the simulation kernel itself runs without it"
    )
