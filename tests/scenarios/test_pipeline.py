"""Tests for the declarative pipeline: spec → build → run_scenario."""

import pytest

from repro.cluster.builder import build
from repro.scenarios import (
    REGISTRY,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    TopologySpec,
    run_mechanisms,
    run_scenario,
)
from repro.sim.engine import Environment
from repro.workloads.patterns import SequentialWritePattern
from repro.workloads.spec import JobSpec, ProcessSpec

MIB = 1 << 20

TINY = {"data_scale": 1 / 256, "time_scale": 1 / 16, "heavy_procs": 2}


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

    @pytest.mark.parametrize(
        "spec, field, value",
        [
            (spec, field, value)
            for spec, field in (
                (PolicySpec, "interval_s"),
                (PolicySpec, "overhead_s"),
                (PolicySpec, "bucket_depth"),
                (TopologySpec, "capacity_mib_s"),
                (TopologySpec, "net_latency_s"),
            )
            for value in (float("inf"), float("nan"))
        ]
        # A bucket shallower than the one token an RPC costs never serves,
        # so its job never finishes.
        + [(PolicySpec, "bucket_depth", 0.5)],
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

    @pytest.mark.parametrize(
        "field, value",
        [("n_osts", 0), ("capacity_mib_s", 0.0), ("rpc_size", 0)],
    )
    def test_non_positive_topology_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            TopologySpec(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_osts", 1.5),
            ("n_osts", True),
            ("stripe_count", 1.0),
            ("rpc_size", 1.5 * MIB),
            ("rpc_size", float("nan")),
            ("io_threads", 2.5),
        ],
    )
    def test_non_integer_topology_rejected(self, field, value):
        """A count that is not an int used to pass here and end the run in
        a ``TypeError`` (or a NaN ``ValueError``) that named no field."""
        with pytest.raises(ValueError, match=f"^{field} must be ") as info:
            TopologySpec(**{field: value})
        message = str(info.value)
        assert "\n" not in message and message.endswith(f"got {value!r}")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            PolicySpec(variant="bogus")

    def test_token_rate_follows_capacity_and_rpc_size(self):
        assert TopologySpec(capacity_mib_s=512.0).max_token_rate() == (
            pytest.approx(512.0)
        )
        # Half-MiB RPCs: twice the tokens for the same bandwidth.
        half = TopologySpec(capacity_mib_s=512.0, rpc_size=MIB // 2)
        assert half.max_token_rate() == pytest.approx(1024.0)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            RunSpec(metrics=("summary", "bogus"))

    @pytest.mark.parametrize("field", ["duration_s", "bin_s"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_run_times_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite"):
            RunSpec(**{field: value})

    def test_cap_the_control_period_cannot_reach_rejected(self):
        """Once ``cap + interval_s == cap`` every control period lands on
        one instant and the run never ends; a long cap that the clock can
        still reach, or a coarser period, stays allowed."""
        with pytest.raises(ValueError, match="duration_s is too large: at 1e"):
            ScenarioSpec(name="t", jobs=tiny_jobs(), run=RunSpec(duration_s=1e300))
        for cap, interval in ((1e14, 0.1), (1e300, 1e290)):
            spec = ScenarioSpec(
                name="t",
                jobs=tiny_jobs(),
                policy=PolicySpec(interval_s=interval),
                run=RunSpec(duration_s=cap),
            )
            assert spec.run.duration_s == cap
            with pytest.raises(ValueError, match="duration_s is too large"):
                spec.with_policy(interval_s=cap * 2.0**-60)

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
        assert len(cluster.handles) == 3
        assert cluster.total_capacity_bps() == 3 * 128.0 * MIB
        assert cluster.spec is spec

    def test_explicit_env_is_used(self):
        env = Environment()
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
        rates = [h.controller.max_token_rate for h in cluster.handles]
        assert rates == [pytest.approx(100.0), pytest.approx(400.0)]

    def test_baselines_have_no_controllers(self):
        spec = ScenarioSpec(
            name="t", jobs=tiny_jobs(), policy=PolicySpec(mechanism="none")
        )
        (handle,) = build(spec).handles
        assert not hasattr(handle, "controller")
        assert handle.history is None


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
        spec = REGISTRY.build("allocation", **TINY)
        results = run_mechanisms(spec)
        assert set(results) == {"none", "static", "adaptbf"}
        for mechanism, result in results.items():
            assert result.mechanism == mechanism


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
