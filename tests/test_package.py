"""Package-level surface tests: public API, version, examples run."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_version_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_public_api_importable():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_init_docstring_example_runs():
    """The quickstart in the package docstring must stay true."""
    from repro.scenarios import REGISTRY, run_scenario

    result = run_scenario(REGISTRY.build("quickstart", file_mib=16.0))
    assert result.summary.aggregate_mib_s > 0


#: Names of deleted surface (the pre-pipeline API, the TBF scheduler that
#: ``TbfPolicy`` absorbed), per package that used to export them.
DELETED_EXPORTS = {
    "repro": (
        "AdapTbf", "Cluster", "ClusterConfig", "build_cluster", "run_experiment",
        "ScenarioConfig",
    ),
    "repro.cluster": (
        "Cluster", "ClusterConfig", "build_cluster", "run_experiment",
        "run_scenario",
    ),
    "repro.core": ("AdapTbf", "StaticBwAllocator"),
    "repro.experiments": ("bench_scale", "full_scale"),
    "repro.experiments.common": ("as_spec", "bench_scale", "full_scale"),
    "repro.lustre": ("TbfScheduler",),
    "repro.lustre.tbf": ("TbfScheduler",),
    "repro.scenarios": ("ScenarioConfig", "from_scenario"),
    "repro.scenarios.spec": ("from_scenario",),
    "repro.sim.tracediff": ("diff_free_list",),
    "repro.workloads": (
        "Scenario",
        "ScenarioConfig",
        "scenario_allocation",
        "scenario_burst_storm",
        "scenario_elastic_churn",
        "scenario_recompensation",
        "scenario_redistribution",
    ),
}


@pytest.mark.parametrize("module", sorted(DELETED_EXPORTS))
def test_pre_pipeline_surface_is_gone(module):
    """A run is configured only by a ``ScenarioSpec``: the flat config,
    its runners and the ``AdapTbf`` facade are not exported any more, nor
    are surfaces later refactors deleted."""
    import importlib

    package = importlib.import_module(module)
    for name in DELETED_EXPORTS[module]:
        assert name not in package.__all__, (module, name)
        assert not hasattr(package, name), (module, name)


def test_framework_module_is_gone():
    import importlib.util

    assert importlib.util.find_spec("repro.core.framework") is None


def test_legacy_scenario_module_is_gone():
    """The paper's job mixes are built only by the registered scenario
    factories; the pre-pipeline ``Scenario`` module is gone."""
    import importlib.util

    assert importlib.util.find_spec("repro.workloads.scenarios") is None


@pytest.mark.parametrize(
    "script", ["quickstart.py", "custom_resource.py"]
)
def test_example_scripts_execute(script):
    """The fast examples run end-to-end as real subprocesses."""
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_subpackages_have_docstrings():
    """Every public module documents itself (deliverable e)."""
    import importlib
    import pkgutil

    import repro

    for module_info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        if module_info.name.endswith("__main__"):
            continue
        module = importlib.import_module(module_info.name)
        assert module.__doc__, f"{module_info.name} lacks a docstring"
