"""Tests for the shared experiment plumbing (comparison helpers)."""

import pytest

from repro.experiments.common import MechanismComparison, compare_mechanisms
from repro.scenarios import REGISTRY

#: The §IV-D mix shrunk to 2 processes per job on a 256 MiB/s OST.
TINY_ALLOCATION = {
    "data_scale": 1 / 256,
    "time_scale": 1.0,
    "heavy_procs": 2,
    "capacity_mib_s": 256.0,
}


class TestMechanismComparison:
    @pytest.fixture(scope="class")
    def cmp(self):
        return compare_mechanisms(REGISTRY.build("allocation", **TINY_ALLOCATION))

    def test_all_three_mechanisms_present(self, cmp):
        assert set(cmp.results) == {"none", "static", "adaptbf"}
        assert cmp.none.mechanism == "none"
        assert cmp.static.mechanism == "static"
        assert cmp.adaptbf.mechanism == "adaptbf"

    def test_job_ids_follow_scenario(self, cmp):
        assert cmp.job_ids == ["job1", "job2", "job3", "job4"]

    def test_comparison_holds_the_spec_it_ran(self, cmp):
        assert cmp.scenario == REGISTRY.build("allocation", **TINY_ALLOCATION)
        for result in cmp.results.values():
            assert result.spec.jobs == cmp.scenario.jobs

    def test_bandwidth_table_contains_all_mechanisms(self, cmp):
        table = cmp.bandwidth_table("T")
        for mechanism in ("none", "static", "adaptbf"):
            assert mechanism in table
        assert "overall" in table

    def test_gains_table_references_baseline(self, cmp):
        table = cmp.gains_table("none", "G")
        assert "aggregate" in table

    def test_timeline_report_covers_all_jobs(self, cmp):
        report = cmp.timeline_report("adaptbf")
        for job in cmp.job_ids:
            assert job in report

    def test_isolated_mechanism_subset(self):
        cmp = compare_mechanisms(
            REGISTRY.build("allocation", **TINY_ALLOCATION),
            mechanisms=("adaptbf",),
        )
        assert isinstance(cmp, MechanismComparison)
        assert set(cmp.results) == {"adaptbf"}
