"""Multi-OST decentralized deployment tests (paper §II-B).

The paper's argument: if bandwidth sharing on every *local* target is fair
and work-conserving, the cumulative effect over all targets is globally
fair without any cross-server coordination.  These tests run AdapTBF with
one independent controller per OST and verify exactly that.
"""

from repro.cluster import build, execute
from repro.scenarios import PolicySpec, RunSpec, ScenarioSpec, TopologySpec
from repro.workloads.patterns import SequentialWritePattern
from repro.workloads.spec import JobSpec, ProcessSpec

MIB = 1 << 20


def jobs_16proc(volume=64 * MIB, nodes=(1, 3)):
    return tuple(
        JobSpec(
            job_id=f"j{i}",
            nodes=n,
            processes=tuple(
                ProcessSpec(SequentialWritePattern(volume)) for _ in range(8)
            ),
        )
        for i, n in enumerate(nodes)
    )


def multi_ost_spec(mechanism, jobs, duration_s=None, **topology):
    return ScenarioSpec(
        name="t",
        jobs=jobs,
        topology=TopologySpec(**topology),
        policy=PolicySpec(mechanism=mechanism),
        run=RunSpec(duration_s=duration_s),
    )


class TestMultiOstBuild:
    def test_builds_independent_stacks(self):
        cluster = build(multi_ost_spec("adaptbf", jobs_16proc(), n_osts=4))
        assert len(cluster.osts) == 4
        assert len(cluster.osses) == 4
        assert len(cluster.handles) == 4
        # Controllers share no allocator state.
        algos = {id(h.algorithm) for h in cluster.handles}
        assert len(algos) == 4

    def test_round_robin_file_placement(self):
        cluster = build(multi_ost_spec("none", jobs_16proc(), n_osts=4))
        # 16 files over 4 OSTs round-robin: each OST serves 4 files.
        placements = [c.io.layout.targets[0] for c in cluster.clients]
        counts = {oss.ost.name: placements.count(oss) for oss in cluster.osses}
        assert set(counts.values()) == {4}

    def test_static_rules_installed_per_ost(self):
        cluster = build(multi_ost_spec("static", jobs_16proc(), n_osts=3))
        assert len(cluster.osses) == 3
        for oss in cluster.osses:
            assert sorted(oss.policy.rule_names()) == ["static_j0", "static_j1"]


class TestDecentralizedFairness:
    def test_global_shares_track_priority_without_coordination(self):
        """§II-B: local fairness on each OST composes into global fairness.

        Both jobs carry enough volume to stay backlogged through the whole
        window, so the measured bandwidths reflect the steady-state shares
        (a finished job would hand its share back and compress the ratio).
        """
        spec = multi_ost_spec(
            "adaptbf",
            jobs_16proc(volume=400 * MIB, nodes=(1, 3)),
            duration_s=2.0,
            n_osts=4,
            capacity_mib_s=256,
        )
        result = execute(build(spec))
        bw = result.summary
        assert not result.clients_finished  # both still writing at the cap
        ratio = bw.job("j1") / bw.job("j0")
        assert 2.0 < ratio < 4.5, ratio

    def test_split_and_aggregate_hold_at_every_cluster_size(self):
        """§II-B at 1, 2, 4 and 8 OSTs sharing one total capacity: the
        split tracks the 3:1 priority ratio on every cluster size, and
        decentralization costs no aggregate throughput (within 15%)."""
        aggregates = []
        for n_osts in (1, 2, 4, 8):
            spec = multi_ost_spec(
                "adaptbf",
                jobs_16proc(volume=400 * MIB, nodes=(3, 1)),
                duration_s=2.0,
                n_osts=n_osts,
                capacity_mib_s=1024.0 / n_osts,
            )
            bw = execute(build(spec)).summary
            ratio = bw.job("j0") / bw.job("j1")
            assert 2.0 < ratio < 4.5, (n_osts, ratio)
            aggregates.append(bw.aggregate_mib_s)
        assert min(aggregates) > 0.85 * max(aggregates), aggregates

    def test_each_ost_runs_its_own_rounds(self):
        spec = multi_ost_spec(
            "adaptbf",
            jobs_16proc(volume=32 * MIB),
            duration_s=1.0,
            n_osts=3,
            capacity_mib_s=256,
        )
        result = execute(build(spec))
        assert len(result.per_ost_histories) == 3
        for history in result.per_ost_histories:
            assert len(history) >= 5  # ~10 rounds in 1 s at 100 ms

    def test_striped_files_reach_all_osts(self):
        spec = multi_ost_spec(
            "adaptbf",
            jobs_16proc(volume=32 * MIB),
            duration_s=2.0,
            n_osts=2,
            stripe_count=2,
            capacity_mib_s=256,
        )
        result = execute(build(spec))
        # Both OSTs' controllers saw both jobs.
        for history in result.per_ost_histories:
            seen = set()
            for round_ in history:
                seen.update(round_.demands)
            assert seen == {"j0", "j1"}

    def test_multi_ost_aggregate_scales(self):
        """Two OSTs deliver ~2x one OST's bandwidth for the same workload."""
        def aggregate_mib_s(n_osts):
            spec = multi_ost_spec(
                "none",
                jobs_16proc(volume=64 * MIB),
                duration_s=2.0,
                n_osts=n_osts,
                capacity_mib_s=128,
            )
            return execute(build(spec)).summary.aggregate_mib_s

        one = aggregate_mib_s(1)
        assert aggregate_mib_s(2) > 1.6 * one
