"""Tests for cluster assembly and the experiment runner."""

import pytest

from repro.cluster import build, execute
from repro.lustre.nrs import FifoPolicy, TbfPolicy
from repro.scenarios import (
    REGISTRY,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.workloads.patterns import SequentialWritePattern
from repro.workloads.spec import JobSpec, ProcessSpec

MIB = 1 << 20


def tiny_jobs(n=2, volume=10 * MIB, nodes=(1, 3)):
    return tuple(
        JobSpec(
            job_id=f"j{i}",
            nodes=nodes[i % len(nodes)],
            processes=(ProcessSpec(SequentialWritePattern(volume)),),
        )
        for i in range(n)
    )


def tiny_spec(mechanism="adaptbf", jobs=None, duration_s=None, **topology):
    return ScenarioSpec(
        name="t",
        jobs=tiny_jobs() if jobs is None else jobs,
        topology=TopologySpec(**topology),
        policy=PolicySpec(mechanism=mechanism),
        run=RunSpec(duration_s=duration_s),
    )


class TestBuild:
    def test_none_uses_fifo(self):
        cluster = build(tiny_spec("none"))
        assert isinstance(cluster.oss.policy, FifoPolicy)
        assert cluster.handles[0].history is None

    def test_static_installs_rules(self):
        cluster = build(tiny_spec("static"))
        policy = cluster.oss.policy
        assert isinstance(policy, TbfPolicy)
        assert sorted(policy.rule_names()) == ["static_j0", "static_j1"]
        # 1:3 node split of the token budget.
        assert policy.get_rule("static_j1").rate == pytest.approx(
            3 * policy.get_rule("static_j0").rate
        )

    def test_adaptbf_attaches_framework(self):
        cluster = build(tiny_spec("adaptbf"))
        assert cluster.handles[0].controller.nodes == {"j0": 1, "j1": 3}

    def test_ablation_variant_injected(self):
        spec = tiny_spec().with_policy(variant="priority_only")
        cluster = build(spec)
        assert not cluster.handles[0].algorithm.enable_redistribution

    def test_one_client_per_process(self):
        jobs = (
            JobSpec(
                job_id="j",
                nodes=1,
                processes=tuple(
                    ProcessSpec(SequentialWritePattern(MIB)) for _ in range(5)
                ),
            ),
        )
        cluster = build(tiny_spec(jobs=jobs))
        assert len(cluster.clients) == 5


class TestExecute:
    def test_run_to_completion(self):
        spec = tiny_spec("none", jobs=tiny_jobs(volume=50 * MIB), capacity_mib_s=100)
        result = execute(build(spec))
        assert result.clients_finished
        assert result.timeline.total_bytes() == 100 * MIB
        assert set(result.job_completion_s) == {"j0", "j1"}
        assert result.summary.aggregate_mib_s > 0

    def test_duration_cap_truncates(self):
        spec = tiny_spec(
            "none",
            jobs=tiny_jobs(volume=100 * MIB),
            duration_s=2.0,
            capacity_mib_s=10,
        )
        result = execute(build(spec))
        assert not result.clients_finished
        assert result.duration_s == 2.0
        # Processor sharing: the first 16 concurrent 1-MiB RPCs all complete
        # together at ~1.6 s, so ~16 MiB lands inside the 2 s cap.
        assert 10 * MIB <= result.timeline.total_bytes() <= 25 * MIB

    def test_adaptbf_history_captured(self):
        spec = tiny_spec(jobs=tiny_jobs(volume=30 * MIB), capacity_mib_s=100)
        result = execute(build(spec))
        assert len(result.history) > 0
        assert result.record_series("j0")
        assert result.demand_series("j0")

    def test_baseline_history_empty(self):
        spec = tiny_spec("none", capacity_mib_s=100)
        assert execute(build(spec)).history == []

    def test_utilization_reported(self):
        spec = tiny_spec("none", jobs=tiny_jobs(volume=50 * MIB), capacity_mib_s=100)
        result = execute(build(spec))
        # Saturating FIFO workload: utilization near 1.
        assert result.ost_utilization == pytest.approx(1.0, abs=0.1)

    def test_paper_allocation_job_mix(self):
        spec = REGISTRY.build(
            "allocation",
            data_scale=1 / 512,
            time_scale=1.0,
            heavy_procs=2,
            capacity_mib_s=256,
        )
        result = execute(build(spec))
        assert result.clients_finished
        assert set(result.job_completion_s) == {
            "job1",
            "job2",
            "job3",
            "job4",
        }
