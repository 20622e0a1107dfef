"""Tests for the declarative pipeline: spec → build → run_scenario."""

import pytest

from repro.cluster.builder import build
from repro.scenarios import (
    REGISTRY,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    TopologySpec,
    from_scenario,
    run_mechanisms,
    run_scenario,
)
from repro.sim.engine import Environment
from repro.workloads.patterns import SequentialWritePattern
from repro.workloads.scenarios import ScenarioConfig, scenario_allocation
from repro.workloads.spec import JobSpec, ProcessSpec

MIB = 1 << 20

TINY = ScenarioConfig(data_scale=1 / 256, time_scale=1 / 16, heavy_procs=2)


def tiny_jobs(n=2, volume=8 * MIB):
    return tuple(
        JobSpec(
            job_id=f"j{i}",
            nodes=i + 1,
            processes=(ProcessSpec(SequentialWritePattern(volume)),),
        )
        for i in range(n)
    )


class TestSpecValidation:
    def test_mechanism_normalized(self):
        policy = PolicySpec(mechanism="  Static ")
        assert policy.mechanism == "static"


    def test_unknown_mechanism(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            PolicySpec(mechanism="bogus")

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize(
        "spec, field",
        [
            (PolicySpec, "interval_s"),
            (PolicySpec, "overhead_s"),
            (PolicySpec, "bucket_depth"),
            (TopologySpec, "capacity_mib_s"),
            (TopologySpec, "net_latency_s"),
        ],
    )
    def test_non_finite_floats_rejected(self, spec, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite"):
            spec(**{field: value})

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0])
    def test_non_finite_ost_capacity_rejected(self, value):
        with pytest.raises(ValueError, match="capacities must be finite"):
            TopologySpec(n_osts=2, ost_capacities_mib_s=(100.0, value))

    def test_heterogeneous_capacities_length_checked(self):
        with pytest.raises(ValueError, match="capacities"):
            TopologySpec(n_osts=2, ost_capacities_mib_s=(100.0,))

    def test_heterogeneous_capacities_resolve(self):
        topo = TopologySpec(n_osts=3, ost_capacities_mib_s=(100, 200, 300))
        assert topo.capacities_mib_s == (100.0, 200.0, 300.0)
        assert topo.total_capacity_mib_s == 600.0
        assert topo.max_token_rate(1) == pytest.approx(200.0)

    def test_uniform_capacities_resolve(self):
        topo = TopologySpec(n_osts=2, capacity_mib_s=512.0)
        assert topo.capacities_mib_s == (512.0, 512.0)

    def test_stripe_count_bounded_by_osts(self):
        with pytest.raises(ValueError, match="stripe_count"):
            TopologySpec(n_osts=2, stripe_count=3)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            RunSpec(metrics=("summary", "bogus"))

    @pytest.mark.parametrize("field", ["duration_s", "bin_s"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_run_times_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite"):
            RunSpec(**{field: value})

    def test_duplicate_job_ids_rejected(self):
        jobs = tiny_jobs(1) * 2
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioSpec(name="dup", jobs=jobs)

    def test_bin_defaults_to_interval(self):
        spec = ScenarioSpec(
            name="t", jobs=tiny_jobs(), policy=PolicySpec(interval_s=0.25)
        )
        assert spec.bin_s == 0.25
        assert spec.with_run(bin_s=0.5).bin_s == 0.5

    def test_with_policy_returns_new_frozen_spec(self):
        spec = ScenarioSpec(name="t", jobs=tiny_jobs())
        other = spec.with_policy(mechanism="none")
        assert spec.policy.mechanism == "adaptbf"
        assert other.policy.mechanism == "none"
        assert other.jobs == spec.jobs

    def test_keep_history_validation(self):
        with pytest.raises(ValueError, match="keep_history"):
            PolicySpec(keep_history=0)

    def test_describe_mentions_jobs_and_policy(self):
        spec = ScenarioSpec(name="t", jobs=tiny_jobs())
        text = spec.describe()
        assert "j0" in text and "adaptbf" in text


class TestBuild:
    def test_build_materializes_topology(self):
        spec = ScenarioSpec(
            name="t",
            jobs=tiny_jobs(),
            topology=TopologySpec(n_osts=3, capacity_mib_s=128.0),
        )
        cluster = build(spec)
        assert len(cluster.osts) == 3
        assert len(cluster.controllers) == 3
        assert cluster.total_capacity_bps() == 3 * 128.0 * MIB
        assert cluster.spec is spec

    def test_explicit_env_is_used(self):
        env = Environment(reuse_timeouts=False)  # caller-configured
        assert build(REGISTRY.build("quickstart"), env=env).env is env

    def test_build_heterogeneous_token_rates(self):
        spec = ScenarioSpec(
            name="t",
            jobs=tiny_jobs(),
            topology=TopologySpec(n_osts=2, ost_capacities_mib_s=(100, 400)),
        )
        cluster = build(spec)
        assert cluster.osts[0].capacity_bps == 100 * MIB
        assert cluster.osts[1].capacity_bps == 400 * MIB
        rates = [c.controller.max_token_rate for c in cluster.controllers]
        assert rates == [pytest.approx(100.0), pytest.approx(400.0)]

    def test_baselines_have_no_controllers(self):
        spec = ScenarioSpec(
            name="t", jobs=tiny_jobs(), policy=PolicySpec(mechanism="none")
        )
        assert build(spec).controllers == []

    def test_legacy_config_view(self):
        spec = ScenarioSpec(
            name="t",
            jobs=tiny_jobs(),
            topology=TopologySpec(n_osts=2, capacity_mib_s=256.0),
        )
        config = build(spec).config
        assert config.n_osts == 2
        assert config.capacity_mib_s == 256.0


class TestRunScenario:
    def test_returns_run_result_with_spec(self):
        spec = ScenarioSpec(name="t", jobs=tiny_jobs())
        result = run_scenario(spec)
        assert result.spec is spec
        assert result.clients_finished
        assert result.summary.aggregate_mib_s > 0

    def test_same_spec_is_deterministic(self):
        spec = REGISTRY.build("burst-storm", n_jobs=3, seed=5, data_scale=1 / 64)
        first = run_scenario(spec)
        second = run_scenario(REGISTRY.build("burst-storm", n_jobs=3, seed=5, data_scale=1 / 64))
        assert first.summary.per_job_mib_s == second.summary.per_job_mib_s
        assert first.job_completion_s == second.job_completion_s

    def test_different_seed_changes_workload(self):
        a = REGISTRY.build("burst-storm", n_jobs=3, seed=1)
        b = REGISTRY.build("burst-storm", n_jobs=3, seed=2)
        assert a.jobs != b.jobs

    def test_metrics_selection_skips_timeline(self):
        spec = ScenarioSpec(
            name="t",
            jobs=tiny_jobs(volume=128 * MIB),  # long enough for >=1 round
            run=RunSpec(metrics=("history", "utilization")),
        )
        result = run_scenario(spec)
        assert result.timeline.total_bytes() == 0  # not recorded
        assert result.history  # still collected
        assert result.ost_utilization > 0

    def test_metrics_selection_skips_history(self):
        spec = ScenarioSpec(
            name="t", jobs=tiny_jobs(), run=RunSpec(metrics=("summary",))
        )
        result = run_scenario(spec)
        assert result.history == []
        assert result.summary.aggregate_mib_s > 0
        assert result.ost_utilization == 0.0

    def test_run_mechanisms_covers_all(self):
        spec = from_scenario(scenario_allocation(TINY))
        results = run_mechanisms(spec)
        assert set(results) == {"none", "static", "adaptbf"}
        for mechanism, result in results.items():
            assert result.mechanism == mechanism

    def test_csvs_identical_with_timeout_reuse_on_and_off(self, tmp_path):
        from repro.cluster.experiment import execute
        from repro.metrics.export import export_all
        from repro.scenarios.runner import RunResult

        spec = REGISTRY.build("quickstart").with_run(duration_s=1.0)
        written = {}
        for reuse in (True, False):
            cluster = build(spec, env=Environment(reuse_timeouts=reuse))
            result = RunResult.from_result(execute(cluster), spec)
            written[reuse] = export_all(
                {result.mechanism: result}, tmp_path / str(reuse), prefix="q"
            )
        assert written[True].keys() == written[False].keys()
        for key, path in written[True].items():
            assert path.read_bytes() == written[False][key].read_bytes(), key


class TestNewScenariosRunToCompletion:
    """Acceptance: each newly expressible scenario builds and runs."""

    def test_burst_storm(self):
        spec = REGISTRY.build(
            "burst-storm", n_jobs=3, seed=3, data_scale=1 / 64, time_scale=1 / 16
        )
        result = run_scenario(spec)
        assert result.duration_s > 0
        assert result.history  # controller actually ran
        # Mixed priorities: at least two distinct node counts among jobs.
        assert len({job.nodes for job in spec.jobs}) >= 2

    def test_elastic_churn(self):
        spec = REGISTRY.build(
            "elastic-churn",
            waves=2,
            jobs_per_wave=2,
            data_scale=1 / 64,
            time_scale=1 / 8,
        )
        result = run_scenario(spec)
        assert result.clients_finished
        # Jobs from different waves complete at different times (churn).
        waves = {
            job_id.split(".")[0] for job_id in result.job_completion_s
        }
        assert waves == {"wave1", "wave2"}

    def test_hetero_osts(self):
        spec = REGISTRY.build("hetero-osts", capacities="64,256", duration=0.0)
        result = run_scenario(spec)
        assert result.clients_finished
        assert len(result.per_ost_histories) == 2
        cluster = build(spec)
        assert cluster.osts[0].capacity_bps == 64 * MIB
        assert cluster.osts[1].capacity_bps == 256 * MIB
