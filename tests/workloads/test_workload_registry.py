"""Tests for the workload registry and the spec-level workload axis."""

import pytest

from repro.scenarios import REGISTRY
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.patterns import (
    Pattern,
    PoissonArrivalPattern,
    SequentialWritePattern,
    TraceReplayPattern,
)
from repro.workloads.registry import WORKLOADS

MB = 1 << 20

EXPECTED_BUILTINS = {
    "seq-write",
    "seq-read",
    "mixed-rw",
    "burst",
    "delayed-continuous",
    "poisson",
    "on-off",
    "diurnal",
    "trace-replay",
}


class TestRegistry:
    def test_builtins_registered(self):
        assert EXPECTED_BUILTINS <= set(WORKLOADS.names())
        assert len(WORKLOADS.names()) >= 8

    def test_build_returns_pattern(self):
        for name in WORKLOADS.names():
            assert isinstance(WORKLOADS.build(name), Pattern)

    def test_build_with_overrides(self):
        pattern = WORKLOADS.build("seq-write", total_mib=16)
        assert pattern == SequentialWritePattern(16 * MB)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            WORKLOADS.get("nope")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            WORKLOADS.build("seq-write", bogus=1)

    def test_coerce_types(self):
        coerced = WORKLOADS.coerce(
            "poisson", {"rate_per_s": "12.5", "count": "8", "seed": "3"}
        )
        assert coerced == {"rate_per_s": 12.5, "count": 8, "seed": 3}

    def test_describe_includes_param_docs(self):
        text = WORKLOADS.describe("poisson")
        assert "rate_per_s" in text
        assert "Mean arrival rate" in text  # pulled from the docstring schema
        assert "PoissonArrivalPattern" in text

    def test_trace_replay_default_uses_bundled_trace(self):
        pattern = WORKLOADS.build("trace-replay")
        assert isinstance(pattern, TraceReplayPattern)
        assert len(pattern.records) >= 10

    def test_trace_replay_job_filter(self):
        pattern = WORKLOADS.build("trace-replay", job="ingest")
        assert {r.job for r in pattern.records} == {"ingest"}

    def test_trace_replay_unknown_job(self):
        with pytest.raises(ValueError, match="jobs present"):
            WORKLOADS.build("trace-replay", job="nope")

    def test_trace_replay_unknown_job_with_sorted_trace(self, tmp_path):
        """The jobs-present error must survive sort=True (no unsorted
        reload masking it with a back-in-time TraceFormatError)."""
        path = tmp_path / "merged.csv"
        path.write_text(
            "t_offset_s,job,op,nbytes\n1.0,a,write,1\n0.5,b,write,1\n"
        )
        with pytest.raises(ValueError, match=r"jobs present: \['a', 'b'\]"):
            WORKLOADS.build(
                "trace-replay", trace=str(path), sort=True, job="typo"
            )

    def test_describe_names_the_workload_param_flag(self):
        text = WORKLOADS.describe("poisson")
        assert "--workload-param" in text
        assert "--param k=v" not in text

    def test_mechanism_describe_includes_param_docs(self):
        from repro.core.mechanism import MECHANISMS

        text = MECHANISMS.describe("adaptbf-ewma")
        assert "alpha" in text
        assert "smoothing factor" in text
        assert "--mechanism-param" in text


#: ``elastic-churn`` scales its ``file_mib`` by ``data_scale`` and clamps the
#: result to at least 1 MiB; its non-finite values stay with the
#: wider parameter fuzzing on the ROADMAP.
CLAMPED_VOLUMES = {("elastic-churn", "file_mib")}

VOLUME_PARAMS = [
    (registry, name, param)
    for registry in (REGISTRY, WORKLOADS)
    for name in registry.names()
    for param in registry.get(name).params
    if param.endswith("_mib") and (name, param) not in CLAMPED_VOLUMES
]


@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1.0])
@pytest.mark.parametrize(
    "registry, name, param",
    VOLUME_PARAMS,
    ids=[f"{name}.{param}" for _, name, param in VOLUME_PARAMS],
)
def test_volume_param_must_be_finite_positive(registry, name, param, value):
    """An infinite MiB volume used to raise ``OverflowError`` from ``int``
    and a NaN one a message naming no parameter."""
    with pytest.raises(ValueError) as exc:
        registry.build(name, **{param: value})
    assert str(exc.value) == (
        f"{param} must be a finite positive number, got {value!r}"
    )


class TestWithWorkload:
    def spec(self, seed=0):
        return REGISTRY.build("quickstart", file_mib=16).with_run(seed=seed)

    def test_preserves_job_structure(self):
        spec = self.spec().with_workload("seq-read", {"total_mib": 8})
        assert spec.job_ids == ["science", "hog"]
        assert [job.nodes for job in spec.jobs] == [4, 1]
        assert all(
            type(p.pattern).__name__ == "SequentialReadPattern"
            for job in spec.jobs
            for p in job.processes
        )
        assert spec.workload == "seq-read"
        assert dict(spec.workload_params) == {"total_mib": 8}

    def test_preserves_windows(self):
        base = self.spec()
        swapped = base.with_workload("seq-write")
        for job_a, job_b in zip(base.jobs, swapped.jobs):
            assert [p.window for p in job_a.processes] == [
                p.window for p in job_b.processes
            ]

    def test_run_seed_flows_into_seeded_workloads(self):
        spec = self.spec(seed=7).with_workload("poisson")
        pattern = spec.jobs[0].processes[0].pattern
        assert isinstance(pattern, PoissonArrivalPattern)
        assert pattern.seed == 7

    def test_explicit_seed_wins(self):
        spec = self.spec(seed=7).with_workload("poisson", {"seed": 3})
        assert spec.jobs[0].processes[0].pattern.seed == 3

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            self.spec().with_workload("nope")

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="no parameter"):
            self.spec().with_workload("seq-write", {"bogus": 1})

    def test_spec_remains_hashable_and_picklable(self):
        import pickle

        spec = self.spec().with_workload("poisson", {"rate_per_s": 4.0})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        hash(clone)

    def test_describe_mentions_workload(self):
        text = self.spec().with_workload("on-off").describe()
        assert "workload: on-off" in text

    def test_spec_validation_rejects_params_without_name(self):
        with pytest.raises(ValueError, match="without a workload"):
            ScenarioSpec(
                name="x",
                jobs=self.spec().jobs,
                workload_params={"total_mib": 1},
            )

    def test_spec_validation_rejects_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            ScenarioSpec(name="x", jobs=self.spec().jobs, workload="nope")
