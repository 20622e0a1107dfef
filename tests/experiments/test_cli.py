"""Tests for the unified experiment CLI (run / list / describe)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import main


#: sha256 of the exact stdout of each listing and describe command.  The
#: registry sections of ``list`` and every ``<kind> list``/``describe``
#: come from one table in the CLI; these digests hold that table to the
#: text the commands printed when each registry had its own handler.
PINNED_STDOUT_SHA256 = {
    "list": "c685b3ba960cbfcfdcef4f57f2a997499f93bb0d7a916303a42095f3c7c9fb28",
    "campaign list": "abbddbc51ea626510d289a07f89777ad0a833b447b92be01d2072e202547fe50",
    "mechanism list": "cafa3209c6e4d7e2fe4d8b50cf562ea683789791d39bb51a43c564b47f556022",
    "workload list": "1dfe86d8298c9c402dcd9677e4fa57a93f0f320604b9c5bfa89aa351e44d29da",
    "fault list": "5072a910e2f3d1b36006874850c7ae5bc0979a566626a98ed6feaf9a38157a26",
    "describe quickstart": "06e813881dcec988ec1b7775a2393dc94c92851fa165e9d6e6cc65d0391b4301",
    "describe fig3": "0b1a514eb1dab4e95083baa580f42759ee819f68b891d27f5c628e650eb1d575",
    "describe overhead": "42b9c7fca5d40c848c4320b1f0141c72da5400f13d741873b4321cd5faceee50",
    "campaign describe freq-sweep": "45a592660551f32b6b70b11cf9c983d92e2edbf178f7699c48888400a1380c86",
    "mechanism describe pid": "9f2a01b433809c77891d62897af7c5a2ce03dba95e84f64ffac150e3b35c4adc",
    "workload describe poisson": "644c177d8dacde3e0c7bb4cd3db9607328194568277b225af257ee62ea6ce661",
    "fault describe ost-crash": "19f04215b2244d7219ca6a1760d48beeff2176a9a91ade4f422b95f11e5b366c",
}


def _exit_in_process(argv, capsys):
    """``main(argv)`` as the interpreter runs the module: the exit status,
    stdout, and stderr's lines (an uncaught ``SystemExit`` with a message
    prints it to stderr and exits 1)."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
        if status is None:
            status = 0
        elif not isinstance(status, int):
            print(status, file=sys.stderr)
            status = 1
    out, err = capsys.readouterr()
    return status, out, err.splitlines()


def _run_cli(args, timeout=120):
    """Run ``python -m repro.experiments ARGS`` in a fresh interpreter."""
    src = Path(__file__).resolve().parents[2] / "src"
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=timeout,
    )


@pytest.mark.parametrize("command", list(PINNED_STDOUT_SHA256))
def test_listing_and_describe_stdout_is_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PINNED_STDOUT_SHA256[command], out


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
        """The one check that spawns ``python -m repro.experiments``: the
        module entry point itself exits 1 with one stderr line.  Every other
        one-line exit runs ``main`` in-process (``_exit_in_process``)."""
        proc = _run_cli(["run", "quickstart", "--param", "interval_s=inf"])
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
            ["allocation", "--param", "data_scale=inf"],
            ["allocation", "--param", "data_scale=nan"],
            ["recompensation", "--param", "time_scale=nan"],
            ["redistribution", "--param", "capacity_mib_s=inf"],
            ["elastic-churn", "--param", "file_mib=inf"],
            ["elastic-churn", "--param", "file_mib=nan"],
            ["fig3", "--param", "data_scale=nan"],
        ],
        ids=lambda args: f"{args[0]}.{args[-1]}",
    )
    def test_non_finite_volume_exits_1_with_one_line(self, args, capsys):
        """``inf`` MiB or scale used to end in an ``OverflowError``
        traceback and ``nan`` in a message that named no parameter."""
        name, _, value = args[-1].partition("=")
        assert _exit_in_process(["run", *args], capsys) == (
            1,
            "",
            [f"{name} must be a finite positive number, got {value}"],
        )

    @pytest.mark.parametrize(
        "args, line",
        [
            (
                ["burst-storm", "--param", "duration_s=inf"],
                "duration_s must be a finite positive number, got inf",
            ),
            (
                ["burst-storm", "--param", "duration_s=nan"],
                "duration_s must be a finite positive number, got nan",
            ),
            (
                ["redistribution", "--param", "time_scale=1e307"],
                "time_scale is too large: it scales a count or volume to inf",
            ),
            (
                ["recompensation", "--param", "time_scale=1e307"],
                "time_scale is too large: it scales a count or volume to inf",
            ),
            (
                ["redistribution", "--param", "data_scale=1e306"],
                "data_scale is too large: it scales a count or volume to inf",
            ),
            (
                ["elastic-churn", "--param", "wave_gap_s=inf"],
                "wave_gap_s must be a finite positive number, got inf",
            ),
            (
                ["elastic-churn", "--param", "wave_gap_s=nan"],
                "wave_gap_s must be a finite positive number, got nan",
            ),
            (
                ["burst-storm", "--param", "duration_s=1e300"],
                "duration_s * time_scale is too large: at 1e+299 s a 0.1 s "
                "control period no longer advances the clock",
            ),
            (
                ["elastic-churn", "--param", "time_scale=1e307"],
                "wave_gap_s * time_scale is too large: at 8e+307 s a 0.1 s "
                "control period no longer advances the clock",
            ),
            (
                ["quickstart", "--duration", "1e300"],
                "duration_s is too large: at 1e+300 s a 0.1 s "
                "control period no longer advances the clock",
            ),
        ],
        ids=[
            "burst-storm.duration_s=inf",
            "burst-storm.duration_s=nan",
            "redistribution.time_scale=1e307",
            "recompensation.time_scale=1e307",
            "redistribution.data_scale=1e306",
            "elastic-churn.wave_gap_s=inf",
            "elastic-churn.wave_gap_s=nan",
            "burst-storm.duration_s=1e300",
            "elastic-churn.time_scale=1e307",
            "quickstart.duration=1e300",
        ],
    )
    def test_overflowing_or_nan_scaled_quantity_exits_with_one_line(
        self, args, line, capsys
    ):
        """A scaled count or volume that overflows used to end in an
        ``OverflowError`` traceback from ``int()``, ``duration_s=nan`` in a
        message naming no parameter, and ``wave_gap_s`` inf/nan in an engine
        traceback mid-run (NaN start delays).  A run cap or arrival time so
        large that the 0.1 s control period no longer advances the clock
        there (``t + 0.1 == t``) used to run until killed."""
        assert _exit_in_process(["run", *args], capsys) == (1, "", [line])

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
        ("mechanism", "vc", "overbook=nan", ">= 1"),
        ("mechanism", "vc", "request_factor=nan", "a finite positive number"),
        ("mechanism", "vc", "request_factor=inf", "a finite positive number"),
    ]

    @pytest.mark.parametrize(
        "kind, name, param, message",
        BAD_FAULT_OR_MECHANISM_PARAMS,
        ids=[f"{case[1]}.{case[2]}" for case in BAD_FAULT_OR_MECHANISM_PARAMS],
    )
    def test_non_finite_fault_or_mechanism_param_exits_1_with_one_line(
        self, kind, name, param, message, capsys
    ):
        """These ended in tracebacks (``nan`` starts and delays, an early
        completion check for ``factor=inf``), hung (``extra_s=inf``) or
        ran silently (PID gains; vc circuits that admitted nothing)."""
        argv = ["run", "quickstart", f"--{kind}", name, f"--{kind}-param", param]
        key, _, value = param.partition("=")
        assert _exit_in_process(argv, capsys) == (
            1,
            "",
            [f"{key} must be {message}, got {value}"],
        )

    def test_never_ending_fault_without_duration_exits_1_with_one_line(
        self, capsys
    ):
        """A permanent crash on a run to client completion used to run
        forever: the crashed OST's clients never finish."""
        argv = [
            "run",
            "quickstart",
            "--fault",
            "ost-crash",
            "--fault-param",
            "duration_s=inf",
        ]
        assert _exit_in_process(argv, capsys) == (
            1,
            "",
            [
                "fault 'ost-crash' never ends (duration_s=inf) and the run "
                "has no duration cap; set one with --duration"
            ],
        )

    @pytest.mark.parametrize("nodes", ["1.5", "2,x"])
    def test_non_integer_trace_replay_nodes_exit_1_naming_the_param(
        self, nodes, capsys
    ):
        """``nodes=1.5`` used to exit with ``invalid literal for int() with
        base 10: '1.5'``, a line that named no parameter."""
        argv = ["run", "trace-replay", "--param", f"nodes={nodes}"]
        assert _exit_in_process(argv, capsys) == (
            1,
            "",
            [f"nodes must be comma-separated ints >= 1, got {nodes!r}"],
        )

    def test_overhead_rejects_csv_with_one_line(self, tmp_path, capsys):
        """``run overhead --csv DIR`` used to exit 0 and write nothing."""
        out = tmp_path / "csv"
        assert _exit_in_process(["run", "overhead", "--csv", str(out)], capsys) == (
            1,
            "",
            [
                "overhead times the allocation algorithm directly and takes "
                "no --full, --param or --csv options"
            ],
        )
        assert not out.exists()

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

    def test_bare_figure_name_is_a_usage_error(self, capsys):
        """Figures run only as `run fig3`; a bare `fig3` is no command."""
        with pytest.raises(SystemExit) as exc:
            main(["fig3", "--full"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.experiments")
        assert "invalid choice: 'fig3'" in err


class TestFigureParams:
    """``run figN --param/--full``: what the adapters receive, and the
    one-line errors raised before any figure runs."""

    @pytest.fixture
    def runs(self, monkeypatch):
        import repro.experiments.__main__ as cli

        runs = []

        def record(name, module, params, csv_dir):
            runs.append((name, module.SCENARIO, params))
            return True

        monkeypatch.setattr(cli, "_run_figure", record)
        monkeypatch.setattr(cli, "_run_overhead", lambda: True)
        return runs

    def test_defaults_leave_the_scenario_scale(self, runs):
        assert main(["run", "fig3"]) == 0
        assert runs == [("fig3", "allocation", {})]

    def test_full_selects_the_paper_scale_before_params(self, runs):
        args = ["run", "fig6", "--full", "--param", "data_scale=0.5"]
        assert main(args) == 0
        assert runs == [
            ("fig6", "redistribution", {"data_scale": 0.5, "time_scale": 1.0})
        ]

    def test_params_take_the_scenario_types(self, runs):
        args = ["run", "fig9", "--param", "heavy_procs=4", "--param", "window=2"]
        assert main(args) == 0
        ((_, scenario, params),) = runs
        assert scenario == "recompensation"
        assert params == {"heavy_procs": 4, "window": 2}
        assert all(type(v) is int for v in params.values())

    def test_all_runs_each_adapter_once_in_figure_order(self, runs):
        assert main(["run", "all", "--param", "time_scale=0.05"]) == 0
        assert [(name, scenario) for name, scenario, _ in runs] == [
            ("fig3", "allocation"),
            ("fig5", "redistribution"),
            ("fig7", "recompensation"),
            ("fig9", "recompensation"),
        ]
        assert all(params == {"time_scale": 0.05} for _, _, params in runs)

    @pytest.mark.parametrize(
        "figure, params, message",
        [
            (
                "fig3",
                ["bogus=1"],
                "figure adapters accept only ('data_scale', 'time_scale', "
                "'heavy_procs', 'window') as --param; got ['bogus']",
            ),
            (
                "fig5",
                ["capacity_mib_s=512", "mechanism=pid"],
                "figure adapters accept only ('data_scale', 'time_scale', "
                "'heavy_procs', 'window') as --param; got ['capacity_mib_s', "
                "'mechanism']",
            ),
            (
                "fig3",
                ["data_scale=abc"],
                "parameter 'data_scale': expected float, got 'abc'",
            ),
            (
                "fig7",
                ["heavy_procs=2.5"],
                "parameter 'heavy_procs': expected int, got '2.5'",
            ),
            # A bad type wins over an unknown key, and the first of the
            # known keys in data/time/procs/window order over the others.
            (
                "fig3",
                ["bogus=1", "window=x", "data_scale=abc"],
                "parameter 'data_scale': expected float, got 'abc'",
            ),
            (
                "fig5",
                ["data_scale=inf"],
                "data_scale must be a finite positive number, got inf",
            ),
            (
                "fig9",
                ["time_scale=nan"],
                "time_scale must be a finite positive number, got nan",
            ),
            (
                "all",
                ["data_scale=0"],
                "data_scale must be a finite positive number, got 0.0",
            ),
            ("fig3", ["heavy_procs=0"], "heavy_procs and window must be positive"),
            ("fig9", ["window=-1"], "heavy_procs and window must be positive"),
        ],
    )
    def test_bad_params_exit_with_one_line(self, runs, figure, params, message):
        args = ["run", figure]
        for param in params:
            args += ["--param", param]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == message
        assert runs == []

    def test_full_then_bad_param_exits(self, runs):
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig3", "--full", "--param", "time_scale=inf"])
        assert exc.value.code == (
            "time_scale must be a finite positive number, got inf"
        )
        assert runs == []


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
