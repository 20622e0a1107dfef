"""Determinism parity under faults, and figure-CSV stability without them.

The engine's determinism contract — two runs of one spec dispatch
identical ``(time, priority, seq)`` streams — must hold *with injectors in
the event loop*, because injector drivers are ordinary simulation
processes.  And the fault machinery must be inert when unused: fault-free
figure exports stay byte-for-byte reproducible run over run.
"""

import filecmp

import pytest

from repro.experiments import fig3_fig4, fig9
from repro.metrics.export import export_all
from repro.scenarios import REGISTRY
from repro.sim.tracediff import diff_streams, format_report, trace_scenario

TEST_SCALE = {"data_scale": 1 / 16, "time_scale": 1 / 16}


def faulted_spec(fault, params):
    return (
        REGISTRY.build(
            "quickstart", file_mib=16.0, procs=2, capacity_mib_s=256.0
        )
        .with_run(seed=3)
        .with_fault(fault, params)
    )


def diff_two_runs(spec):
    """Trace ``spec`` twice and compare the two dispatch streams."""
    return diff_streams(
        spec.name,
        ("first run", "second run"),
        trace_scenario(spec),
        trace_scenario(spec),
    )


class TestTraceParityUnderFaults:
    @pytest.mark.parametrize(
        "fault,params",
        [
            ("ost-crash", {"start_s": 0.05, "duration_s": 0.1}),
            ("ost-degrade", {"start_s": 0.05, "duration_s": 0.1, "factor": 0.2}),
            ("net-delay", {"start_s": 0.05, "duration_s": 0.1, "factor": 5.0}),
            ("net-delay", {"start_s": 0.05, "duration_s": 0.1, "partition": True}),
            ("client-churn", {"start_s": 0.05, "duration_s": 0.1, "leaves": 1}),
        ],
    )
    def test_two_runs_dispatch_identically(self, fault, params):
        report = diff_two_runs(faulted_spec(fault, params))
        assert report.equal, format_report(report)

    def test_stacked_faults_stay_in_parity(self):
        spec = faulted_spec("ost-crash", {"start_s": 0.05, "duration_s": 0.05})
        spec = spec.with_fault(
            "net-delay", {"start_s": 0.12, "duration_s": 0.05, "factor": 3.0}
        )
        report = diff_two_runs(spec)
        assert report.equal, format_report(report)


class TestFigureCsvByteIdentity:
    """Fault-free figure CSVs are byte-identical run over run."""

    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        # Timeline binning is vectorized; the rest of tests/faults stays
        # numpy-free so the scalar-fallback CI leg can run it.
        pytest.importorskip("numpy")

    def test_fig3_fig4_csvs_stable(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            comparison = fig3_fig4.run(**TEST_SCALE)
            written = export_all(
                comparison.results, tmp_path / run, prefix="fig3_fig4"
            )
            paths.append(sorted(written.values()))
        assert [p.name for p in paths[0]] == [p.name for p in paths[1]]
        for left, right in zip(*paths):
            assert filecmp.cmp(left, right, shallow=False), left.name

    def test_fig9_report_stable(self):
        runs = [
            fig9.report(fig9.run(intervals_s=(0.1, 0.5), **TEST_SCALE))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
