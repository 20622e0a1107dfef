"""Tests for the unified experiment CLI (run / list / describe)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import main


class TestList:
    def test_lists_figures_and_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig9", "overhead", "quickstart", "burst-storm"):
            assert name in out


class TestDescribe:
    def test_describe_registered_scenario(self, capsys):
        assert main(["describe", "quickstart"]) == 0
        out = capsys.readouterr().out
        assert "quickstart" in out
        assert "--param" in out
        assert "topology:" in out

    def test_describe_figure_points_at_scenario(self, capsys):
        assert main(["describe", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "allocation" in out
        assert "mechanisms" in out

    def test_describe_unknown_exits(self):
        with pytest.raises(SystemExit):
            main(["describe", "nope"])


class TestRun:
    def test_run_registered_scenario_with_overrides(self, capsys):
        code = main(
            [
                "run",
                "quickstart",
                "--duration",
                "0.5",
                "--param",
                "file_mib=16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved bandwidth (adaptbf)" in out
        assert "science" in out and "hog" in out

    def test_run_mechanism_override(self, capsys):
        code = main(
            [
                "run",
                "quickstart",
                "--mechanism",
                "none",
                "--param",
                "file_mib=16",
            ]
        )
        assert code == 0
        assert "achieved bandwidth (none)" in capsys.readouterr().out

    def test_run_underscore_alias(self, capsys):
        code = main(
            ["run", "burst_storm", "--param", "n_jobs=2", "--duration", "0.5"]
        )
        assert code == 0
        assert "storm1" in capsys.readouterr().out

    def test_unknown_scenario_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "not-a-scenario"])

    def test_unknown_param_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "quickstart", "--param", "bogus=1"])

    @pytest.mark.parametrize("duration", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_duration_exits(self, duration):
        with pytest.raises(SystemExit, match="duration_s must be a finite"):
            main(["run", "quickstart", "--duration", duration])

    @pytest.mark.parametrize(
        "param",
        [
            "interval_s=inf",
            "interval_s=nan",
            "capacity_mib_s=inf",
            "capacity_mib_s=nan",
        ],
    )
    def test_non_finite_policy_or_topology_float_exits(self, param):
        """``interval_s=inf`` used to run with no controller round at all;
        ``nan`` and a non-finite capacity ended in engine tracebacks."""
        name, _, value = param.partition("=")
        with pytest.raises(SystemExit) as exc:
            main(["run", "quickstart", "--param", param])
        assert exc.value.code == (
            f"{name} must be a finite positive number, got {value}"
        )

    def test_non_finite_param_exits_1_with_one_line(self):
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "run",
                "quickstart",
                "--param",
                "interval_s=inf",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "interval_s must be a finite positive number, got inf"
        ]

    @pytest.mark.parametrize(
        "args",
        [
            ["client-swarm", "--param", "op_mib=inf"],
            ["client-swarm", "--param", "op_mib=nan"],
            ["quickstart", "--param", "file_mib=inf"],
            ["quickstart", "--param", "file_mib=nan"],
            [
                "quickstart",
                "--workload",
                "seq-write",
                "--workload-param",
                "total_mib=inf",
            ],
            [
                "quickstart",
                "--workload",
                "seq-write",
                "--workload-param",
                "total_mib=nan",
            ],
        ],
        ids=lambda args: f"{args[0]}.{args[-1]}",
    )
    def test_non_finite_volume_exits_1_with_one_line(self, args):
        """``inf`` MiB used to end in an ``OverflowError`` traceback and
        ``nan`` in a message that named no parameter."""
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "run", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        name, _, value = args[-1].partition("=")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"{name} must be a finite positive number, got {value}"
        ]

    BAD_FAULT_OR_MECHANISM_PARAMS = [
        ("fault", "ost-crash", "start_s=nan", "a finite number >= 0"),
        ("fault", "ost-crash", "duration_s=nan", "positive"),
        ("fault", "ost-degrade", "factor=nan", "a finite positive number"),
        ("fault", "ost-degrade", "factor=inf", "a finite positive number"),
        ("fault", "net-delay", "extra_s=nan", "a finite number >= 0"),
        ("fault", "net-delay", "extra_s=inf", "a finite number >= 0"),
        ("mechanism", "sdn", "ctrl_latency_s=nan", "a finite number >= 0"),
        ("mechanism", "sdn", "staleness_s=nan", "a finite number >= 0"),
        ("mechanism", "pid", "kp=nan", "a finite number >= 0"),
        ("mechanism", "pid", "ki=inf", "a finite number >= 0"),
    ]

    @pytest.mark.parametrize(
        "kind, name, param, message",
        BAD_FAULT_OR_MECHANISM_PARAMS,
        ids=[f"{case[1]}.{case[2]}" for case in BAD_FAULT_OR_MECHANISM_PARAMS],
    )
    def test_non_finite_fault_or_mechanism_param_exits_1_with_one_line(
        self, kind, name, param, message
    ):
        """These ended in tracebacks (``nan`` starts and delays, an early
        completion check for ``factor=inf``), hung (``extra_s=inf``) or
        ran silently (PID gains)."""
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "run",
                "quickstart",
                f"--{kind}",
                name,
                f"--{kind}-param",
                param,
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        key, _, value = param.partition("=")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"{key} must be {message}, got {value}"
        ]

    def test_csv_export(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "quickstart",
                "--param",
                "file_mib=16",
                "--csv",
                str(tmp_path),
            ]
        )
        assert code == 0
        written = list(tmp_path.glob("quickstart_*.csv"))
        assert written

    def test_fig9_csv_export(self, tmp_path, capsys):
        scale = 1 / 32
        main(
            [
                "run",
                "fig9",
                "--param",
                f"data_scale={scale}",
                "--param",
                f"time_scale={scale}",
                "--csv",
                str(tmp_path),
            ]
        )
        path = tmp_path / "fig9_sweep.csv"
        assert f"CSV written: {path}" in capsys.readouterr().out
        header, *rows = path.read_text().splitlines()
        assert header == "interval_s,aggregate_mib_s"
        # One row per allocation period of the paper's sweep, time-scaled.
        assert [float(row.split(",")[0]) for row in rows] == pytest.approx(
            [0.1 * scale, 0.25 * scale, 0.5 * scale, 1.0 * scale, 2.0 * scale]
        )
        assert all(float(row.split(",")[1]) > 0 for row in rows)

    def test_legacy_invocation_rewritten(self, capsys):
        """`python -m repro.experiments fig3 ...` still parses as `run fig3`."""
        import repro.experiments.__main__ as cli

        captured = {}

        def fake_run_figures(name, args, params):
            captured["name"] = name
            captured["full"] = args.full
            return True

        original = cli._run_figures
        cli._run_figures = fake_run_figures
        try:
            assert main(["fig3", "--full"]) == 0
        finally:
            cli._run_figures = original
        assert captured == {"name": "fig3", "full": True}


class TestCampaign:
    def test_campaign_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("freq-sweep", "burst-grid", "scale-osts"):
            assert name in out

    def test_campaign_describe(self, capsys):
        assert main(["campaign", "describe", "freq-sweep"]) == 0
        out = capsys.readouterr().out
        assert "interval_s" in out
        assert "recompensation" in out
        assert "--param" in out
        # The spec hash is the store/resume identity key; describe must
        # surface it so a sweep can be matched to its durable store.
        assert "hash=" in out

    def test_campaign_describe_unknown_exits(self):
        with pytest.raises(SystemExit):
            main(["campaign", "describe", "nope"])

    def test_campaign_run_with_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "run",
                "scale-osts",
                "--param",
                "osts=1",
                "--param",
                "capacities=128",
                "--param",
                "file_mib=8",
                "--param",
                "procs=2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign 'scale-osts'" in out
        assert "MiB/s" in out
        for artifact in ("manifest.json", "rows.json", "rows.csv", "timing.json"):
            assert (tmp_path / artifact).exists()

    def test_campaign_store_run_status_resume_cycle(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        base = [
            "campaign", "run", "scale-osts",
            "--param", "osts=1",
            "--param", "capacities=128,192",
            "--param", "file_mib=8",
            "--param", "procs=2",
            "--store", store,
        ]
        # Half the sweep, with per-cell progress lines.
        assert main(base + ["--max-cells", "1", "--progress"]) == 0
        out = capsys.readouterr().out
        assert "[1/2] cell 0:" in out
        assert "campaign incomplete" in out

        assert main(["campaign", "status", store]) == 0
        out = capsys.readouterr().out
        assert "1/2 committed" in out
        assert "campaign resume" in out

        assert main(["campaign", "resume", store]) == 0
        out = capsys.readouterr().out
        assert "skipped 1 already-committed" in out

        assert main(["campaign", "status", store]) == 0
        assert "complete" in capsys.readouterr().out

    def test_campaign_fresh_run_on_dirty_store_exits(self, tmp_path, capsys):
        base = [
            "campaign", "run", "scale-osts",
            "--param", "osts=1",
            "--param", "capacities=128,192",
            "--param", "file_mib=8",
            "--param", "procs=2",
            "--store", str(tmp_path / "s.db"),
        ]
        assert main(base + ["--max-cells", "1"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="resume"):
            main(base)
        # --resume picks the half-finished sweep back up instead.
        assert main(base + ["--resume"]) == 0

    def test_campaign_resume_requires_store(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "campaign", "run", "freq-sweep", "--resume",
                ]
            )

    def test_campaign_status_empty_store_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no campaign"):
            main(["campaign", "status", str(tmp_path / "empty")])

    def test_campaign_run_unknown_param_exits(self):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "freq-sweep", "--param", "bogus=1"])

    def test_campaign_run_unknown_name_exits(self):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "not-a-campaign"])

    def test_campaign_underscore_alias(self, capsys):
        assert main(["campaign", "describe", "freq_sweep"]) == 0
        assert "freq-sweep" in capsys.readouterr().out

    def test_scenario_list_mentions_campaigns(self, capsys):
        assert main(["list"]) == 0
        assert "campaign list" in capsys.readouterr().out


class TestMechanismCli:
    def test_mechanism_list(self, capsys):
        assert main(["mechanism", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("none", "static", "adaptbf", "adaptbf-ewma", "pid"):
            assert name in out
        assert "--mechanism" in out

    def test_mechanism_describe(self, capsys):
        assert main(["mechanism", "describe", "pid"]) == 0
        out = capsys.readouterr().out
        assert "kp" in out and "ki" in out
        assert "mechanism: pid" in out

    def test_mechanism_describe_unknown_exits(self):
        with pytest.raises(SystemExit):
            main(["mechanism", "describe", "nope"])

    def test_run_with_new_mechanism_and_params(self, capsys):
        code = main(
            [
                "run",
                "quickstart",
                "--mechanism",
                "pid",
                "--mechanism-param",
                "kp=0.9",
                "--param",
                "file_mib=16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved bandwidth (pid)" in out
        assert "kp=0.9" in out  # spec header records the override

    def test_run_unknown_mechanism_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "quickstart", "--mechanism", "bogus"])

    def test_run_unknown_mechanism_param_exits(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "quickstart",
                    "--mechanism",
                    "pid",
                    "--mechanism-param",
                    "bogus=1",
                ]
            )

    def test_scenario_list_mentions_mechanisms(self, capsys):
        assert main(["list"]) == 0
        assert "mechanism list" in capsys.readouterr().out

    def test_shootout_reports_comparison_table(self, capsys):
        code = main(
            [
                "campaign",
                "run",
                "mechanism-shootout",
                "--param",
                "mechanisms=none,static",
                "--param",
                "scenario=quickstart",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mechanism shootout" in out
        assert "fairness" in out


class TestWorkloadCli:
    def test_workload_list(self, capsys):
        assert main(["workload", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("seq-write", "seq-read", "poisson", "trace-replay"):
            assert name in out
        assert "--workload" in out

    def test_workload_describe(self, capsys):
        assert main(["workload", "describe", "on-off"]) == 0
        out = capsys.readouterr().out
        assert "on_mib" in out
        assert "OnOffPattern" in out

    def test_workload_describe_unknown_exits(self):
        with pytest.raises(SystemExit):
            main(["workload", "describe", "nope"])

    def test_run_with_workload_override(self, capsys):
        code = main(
            [
                "run",
                "quickstart",
                "--workload",
                "seq-read",
                "--workload-param",
                "total_mib=8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workload: seq-read" in out
        assert "achieved bandwidth (adaptbf)" in out

    def test_run_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "quickstart", "--workload", "bogus"])

    def test_run_unknown_workload_param_exits(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "quickstart",
                    "--workload",
                    "poisson",
                    "--workload-param",
                    "bogus=1",
                ]
            )

    def test_workload_param_without_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "quickstart", "--workload-param", "total_mib=8"])

    def test_figure_adapters_reject_workload_flags(self):
        with pytest.raises(SystemExit):
            main(["run", "fig3", "--workload", "poisson"])

    def test_run_trace_replay_scenario(self, capsys):
        code = main(
            [
                "run",
                "trace-replay",
                "--param",
                "time_scale=0.25",
                "--param",
                "data_scale=0.25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ingest" in out and "analysis" in out and "checkpoint" in out

    def test_scenario_list_mentions_workloads(self, capsys):
        assert main(["list"]) == 0
        assert "workload list" in capsys.readouterr().out
