"""Unit tests for the paper-scenario constructors."""

import pytest

from repro.workloads.scenarios import (
    GIB,
    MIB,
    ScenarioConfig,
    scenario_allocation,
    scenario_recompensation,
    scenario_redistribution,
)
from repro.workloads.spec import JobSpec, ProcessSpec, validate_jobs
from repro.workloads.patterns import SequentialWritePattern


class TestScenarioConfig:
    def test_defaults_are_paper_scale(self):
        cfg = ScenarioConfig()
        assert cfg.bytes_(GIB) == GIB
        assert cfg.secs(20.0) == 20.0

    def test_scaling(self):
        cfg = ScenarioConfig(data_scale=0.5, time_scale=0.1)
        assert cfg.bytes_(GIB) == GIB // 2
        assert cfg.secs(20.0) == pytest.approx(2.0)

    def test_bytes_floor_at_one_mib(self):
        cfg = ScenarioConfig(data_scale=1e-9)
        assert cfg.bytes_(GIB) == MIB

    def test_invalid_scales(self):
        with pytest.raises(ValueError):
            ScenarioConfig(data_scale=0)
        with pytest.raises(ValueError):
            ScenarioConfig(time_scale=-1)
        with pytest.raises(ValueError):
            ScenarioConfig(heavy_procs=0)
        with pytest.raises(ValueError):
            ScenarioConfig(capacity_hint_mib_s=0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize(
        "field", ["data_scale", "time_scale", "capacity_hint_mib_s"]
    )
    def test_non_finite_scales_rejected(self, field, value):
        with pytest.raises(ValueError) as exc:
            ScenarioConfig(**{field: value})
        assert str(exc.value) == (
            f"{field} must be a finite positive number, got {value!r}"
        )

    def test_continuous_sizing_spans_duration(self):
        cfg = ScenarioConfig(capacity_hint_mib_s=1000)
        per_proc = cfg.continuous_bytes_per_proc(10.0, procs=10, saturation=1.0)
        assert per_proc * 10 == pytest.approx(1000 * MIB * 10, rel=0.01)


class TestScenarioAllocation:
    def test_matches_paper_configuration(self):
        s = scenario_allocation(ScenarioConfig())
        assert [j.job_id for j in s.jobs] == ["job1", "job2", "job3", "job4"]
        assert [j.nodes for j in s.jobs] == [1, 1, 3, 5]  # 10/10/30/50 %
        assert all(len(j.processes) == 16 for j in s.jobs)
        # Paper: each file is 1 GiB.
        for job in s.jobs:
            for proc in job.processes:
                assert proc.pattern.total_bytes_hint() == GIB
        assert s.duration_s is None  # run to completion

    def test_nodes_mapping(self):
        s = scenario_allocation()
        assert s.nodes == {"job1": 1, "job2": 1, "job3": 3, "job4": 5}


class TestScenarioRedistribution:
    def test_matches_paper_configuration(self):
        s = scenario_redistribution(ScenarioConfig())
        assert [j.nodes for j in s.jobs] == [3, 3, 3, 1]  # 30/30/30/10 %
        assert [len(j.processes) for j in s.jobs] == [2, 2, 2, 16]
        assert s.duration_s == pytest.approx(60.0)

    def test_bursts_interleave(self):
        s = scenario_redistribution(ScenarioConfig())
        delays = set()
        for job in s.jobs[:3]:
            for proc in job.processes:
                delays.add(proc.pattern.start_delay_s)
        assert len(delays) == 6  # all six burst streams offset differently

    def test_hog_outlives_window(self):
        cfg = ScenarioConfig(capacity_hint_mib_s=1024)
        s = scenario_redistribution(cfg)
        hog = s.jobs[3]
        # Hog volume exceeds what the OST can deliver in the window.
        assert hog.total_bytes_hint > 1024 * MIB * s.duration_s


class TestScenarioRecompensation:
    def test_matches_paper_configuration(self):
        s = scenario_recompensation(ScenarioConfig())
        assert [j.nodes for j in s.jobs] == [1, 1, 1, 1]  # equal 25 %
        assert [len(j.processes) for j in s.jobs] == [2, 2, 2, 16]

    def test_delays_are_20_50_80(self):
        s = scenario_recompensation(ScenarioConfig())
        delays = [job.processes[1].pattern.delay_s for job in s.jobs[:3]]
        assert delays == [20.0, 50.0, 80.0]

    def test_job3_has_smallest_burst(self):
        s = scenario_recompensation(ScenarioConfig())
        bursts = [job.processes[0].pattern.burst_bytes for job in s.jobs[:3]]
        assert bursts[2] == min(bursts)

    def test_time_scale_compresses_delays(self):
        s = scenario_recompensation(ScenarioConfig(time_scale=0.1))
        delays = [job.processes[1].pattern.delay_s for job in s.jobs[:3]]
        assert delays == pytest.approx([2.0, 5.0, 8.0])


class TestSpecValidation:
    def test_job_requires_processes(self):
        with pytest.raises(ValueError):
            JobSpec(job_id="j", nodes=1, processes=())

    def test_job_requires_positive_nodes(self):
        proc = ProcessSpec(SequentialWritePattern(MIB))
        with pytest.raises(ValueError):
            JobSpec(job_id="j", nodes=0, processes=(proc,))

    def test_job_requires_id(self):
        proc = ProcessSpec(SequentialWritePattern(MIB))
        with pytest.raises(ValueError):
            JobSpec(job_id="", nodes=1, processes=(proc,))

    def test_process_requires_positive_window(self):
        with pytest.raises(ValueError):
            ProcessSpec(SequentialWritePattern(MIB), window=0)

    def test_duplicate_job_ids_rejected(self):
        proc = ProcessSpec(SequentialWritePattern(MIB))
        jobs = [
            JobSpec(job_id="same", nodes=1, processes=(proc,)),
            JobSpec(job_id="same", nodes=1, processes=(proc,)),
        ]
        with pytest.raises(ValueError):
            validate_jobs(jobs)

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError):
            validate_jobs([])

    def test_total_bytes_hint_sums_processes(self):
        procs = (
            ProcessSpec(SequentialWritePattern(MIB)),
            ProcessSpec(SequentialWritePattern(2 * MIB)),
        )
        job = JobSpec(job_id="j", nodes=1, processes=procs)
        assert job.total_bytes_hint == 3 * MIB
