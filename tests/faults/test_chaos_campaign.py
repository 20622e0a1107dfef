"""The chaos-shootout campaign: spec shape, chaos metrics, resume.

Covers the fault axis end-to-end at the campaign layer: the built-in
``chaos-shootout`` sweep, the chaos columns :func:`run_cell` adds to
``CellRow``, byte-identity of ``rows.json`` across ``--jobs`` fan-out,
the ranked report table, and mid-fault-window resume where the schedule
is rebuilt registry-free from the store's canonical spec.
"""

import pytest

from repro.campaigns import (
    CAMPAIGNS,
    CampaignSpec,
    JsonlStore,
    ParameterAxis,
    SqliteStore,
    run_campaign,
    write_artifacts,
)
from repro.campaigns.aggregate import CellRow
from repro.core.mechanism import MECHANISMS
from repro.metrics.report import format_chaos_table


def small_chaos_campaign(**base_overrides):
    base = {
        "file_mib": 16.0,
        "procs": 2,
        "capacity_mib_s": 256.0,
        "fault": "ost-crash",
        "fault_params": {"start_s": 0.05, "duration_s": 0.1},
    }
    base.update(base_overrides)
    return CampaignSpec(
        name="chaos-tiny",
        scenario="quickstart",
        axes=(ParameterAxis("mechanism", ("adaptbf", "none")),),
        base_params=base,
    )


class TestBuiltinSpec:
    def test_sweeps_every_mechanism_by_default(self):
        spec = CAMPAIGNS.build("chaos-shootout")
        assert spec.n_cells == len(MECHANISMS.names())
        (axis,) = spec.axes
        assert axis.param == "mechanism"
        assert set(axis.values) == set(MECHANISMS.names())
        assert spec.base_params["fault"] == "ost-crash"
        assert spec.base_params["fault_params"]["start_s"] == 0.4

    def test_mechanism_subset(self):
        spec = CAMPAIGNS.build("chaos-shootout", mechanisms="adaptbf,none")
        assert [axis.values for axis in spec.axes] == [("adaptbf", "none")]

    def test_unknown_mechanism_fails_fast(self):
        with pytest.raises(KeyError):
            CAMPAIGNS.build("chaos-shootout", mechanisms="adaptbf,warp9")

    def test_unknown_fault_fails_fast(self):
        with pytest.raises(KeyError):
            CAMPAIGNS.build("chaos-shootout", fault="osd-crash")

    def test_resolved_cells_carry_the_fault(self):
        spec = CAMPAIGNS.build("chaos-shootout", mechanisms="adaptbf")
        resolved = spec.resolve(next(iter(spec.cells())))
        assert [f.name for f in resolved.faults] == ["ost-crash"]


class TestChaosColumns:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(small_chaos_campaign(), jobs=1)

    def test_rows_populated(self, result):
        for row in result.rows:
            assert row.clients_finished
            assert row.rpcs_dropped > 0
            assert row.rpcs_retried >= row.rpcs_dropped
            assert row.recovery_s >= 0.0
            assert 0.0 <= row.fairness_during <= 1.0
            assert 0.0 <= row.fairness_after <= 1.0

    def test_fault_free_rows_keep_identity_defaults(self):
        spec = CampaignSpec(
            name="no-fault",
            scenario="quickstart",
            axes=(ParameterAxis("mechanism", ("none",)),),
            base_params={"file_mib": 16.0, "procs": 2},
        )
        (row,) = run_campaign(spec, jobs=1).rows
        assert row.recovery_s == 0.0
        assert row.fairness_during == 1.0
        assert row.fairness_after == 1.0
        assert row.rpcs_dropped == 0
        assert row.rpcs_retried == 0

    def test_chaos_table_ranks_mechanisms(self, result):
        table = format_chaos_table(result)
        assert "ost-crash" in table
        assert "recovery" in table
        for name in ("adaptbf", "none"):
            assert name in table

    def test_cell_row_round_trip(self, result):
        for row in result.rows:
            assert CellRow.from_dict(row.as_dict()) == row

    def test_legacy_payload_without_chaos_fields_loads(self, result):
        payload = result.rows[0].as_dict()
        for key in (
            "recovery_s",
            "fairness_during",
            "fairness_after",
            "rpcs_dropped",
            "rpcs_retried",
        ):
            payload.pop(key)
        row = CellRow.from_dict(payload)
        assert row.recovery_s == 0.0
        assert row.fairness_during == 1.0
        assert row.rpcs_dropped == 0


class TestNeverEndingWindow:
    def test_inf_window_rows_equal_a_window_past_the_run(self):
        """``fault_duration_s=inf`` used to fail every cell with an
        ``OverflowError`` in the recovery scan; a window that never closes
        must read like one that outlasts the 4 s run."""
        rows = {
            duration: run_campaign(
                CAMPAIGNS.build(
                    "chaos-shootout",
                    mechanisms="adaptbf,vc",
                    fault_duration_s=duration,
                ),
                jobs=1,
            ).rows
            for duration in (float("inf"), 100.0)
        }
        assert rows[float("inf")] == rows[100.0]
        assert [row.mechanism for row in rows[100.0]] == ["adaptbf", "vc"]


class TestRerunCommands:
    def test_rerun_emits_fault_flags(self, tmp_path):
        import json

        result = run_campaign(small_chaos_campaign(), jobs=1)
        written = write_artifacts(result, tmp_path)
        manifest = json.loads(written["manifest"].read_text())
        reruns = [cell["rerun"] for cell in manifest["cells"]]
        assert reruns
        for cmd in reruns:
            assert "--fault ost-crash" in cmd
            assert "--fault-param start_s=0.05" in cmd
            assert "--fault-param duration_s=0.1" in cmd
            assert "--param fault" not in cmd


class TestDeterminismAndResume:
    def test_rows_byte_identical_across_jobs(self, tmp_path):
        artifacts = []
        for jobs in (1, 3):
            result = run_campaign(small_chaos_campaign(), jobs=jobs)
            artifacts.append(write_artifacts(result, tmp_path / f"j{jobs}"))
        assert (
            artifacts[0]["rows"].read_bytes()
            == artifacts[1]["rows"].read_bytes()
        )

    def test_spec_round_trip_preserves_fault_params(self):
        spec = small_chaos_campaign()
        rebuilt = CampaignSpec.from_json_dict(spec.to_json_dict())
        assert rebuilt.base_params["fault"] == "ost-crash"
        assert rebuilt.base_params["fault_params"] == {
            "start_s": 0.05,
            "duration_s": 0.1,
        }
        assert rebuilt.spec_hash() == spec.spec_hash()

    @pytest.mark.parametrize("kind", ["jsonl", "sqlite"])
    def test_resume_mid_fault_is_byte_identical(self, tmp_path, kind):
        spec = small_chaos_campaign()
        baseline = write_artifacts(
            run_campaign(spec, jobs=1), tmp_path / "baseline"
        )
        if kind == "jsonl":
            store = JsonlStore(tmp_path / "store")
        else:
            store = SqliteStore(tmp_path / "store.db")
        partial = run_campaign(spec, jobs=1, store=store, max_cells=1)
        assert not partial.complete
        # Resume from the store's canonical form only — no registry, no
        # original factory call — exactly what `campaign resume` does.
        rebuilt = CampaignSpec.from_json_dict(spec.to_json_dict())
        resumed = run_campaign(rebuilt, jobs=1, store=store, resume=True)
        assert resumed.complete
        assert resumed.skipped == 1
        written = write_artifacts(resumed, tmp_path / "resumed")
        assert (
            written["rows"].read_bytes() == baseline["rows"].read_bytes()
        )
