"""The fault registry and the frozen ``FaultSpec`` it validates against."""

import pickle

import pytest

from repro.faults import FAULTS, FaultSpec
from repro.faults.builtin import OstCrashInjector
from repro.scenarios import REGISTRY

BUILTINS = ("client-churn", "net-delay", "ost-crash", "ost-degrade")


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTINS) <= set(FAULTS.names())

    def test_build_stamps_name_and_params(self):
        injector = FAULTS.build("ost-crash", start_s=0.2)
        assert isinstance(injector, OstCrashInjector)
        assert injector.name == "ost-crash"
        assert injector.params["start_s"] == 0.2
        assert injector.params["duration_s"] == 0.5  # factory default

    def test_describe_shows_windows(self):
        text = FAULTS.describe("ost-degrade")
        assert "disturbance window(s)" in text
        assert "factor" in text

    def test_coerce_parses_cli_strings(self):
        coerced = FAULTS.coerce(
            "net-delay", {"factor": "3.5", "partition": "true"}
        )
        assert coerced == {"factor": 3.5, "partition": True}

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="ost-crash"):
            FAULTS.get("osd-crash")


class TestFaultSpec:
    def test_params_canonicalized_sorted(self):
        a = FaultSpec("ost-crash", {"start_s": 1.0, "ost": 1})
        b = FaultSpec("ost-crash", {"ost": 1, "start_s": 1.0})
        assert a == b
        assert a.params == (("ost", 1), ("start_s", 1.0))
        assert a.kwargs == {"ost": 1, "start_s": 1.0}

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultSpec("not-a-fault")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            FaultSpec("ost-crash", {"blast_radius": 3})

    def test_hashable_and_picklable(self):
        spec = FaultSpec("client-churn", {"leaves": 2, "seed": 7})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)

    def test_build_materializes_injector(self):
        injector = FaultSpec("ost-crash", {"start_s": 0.1}).build()
        assert injector.windows() == ((0.1, 0.6),)


class TestWithFault:
    def test_appends_fault_to_spec(self):
        spec = REGISTRY.build("quickstart").with_fault(
            "ost-crash", {"start_s": 0.3}
        )
        assert len(spec.faults) == 1
        assert spec.faults[0].name == "ost-crash"
        assert spec.faults[0].kwargs == {"start_s": 0.3}

    def test_faults_accumulate(self):
        spec = (
            REGISTRY.build("quickstart")
            .with_fault("ost-crash")
            .with_fault("net-delay")
        )
        assert [f.name for f in spec.faults] == ["ost-crash", "net-delay"]

    def test_seed_auto_injected_for_seeded_faults(self):
        spec = REGISTRY.build("quickstart").with_run(seed=99)
        churned = spec.with_fault("client-churn")
        assert churned.faults[0].kwargs["seed"] == 99

    def test_pinned_seed_wins(self):
        spec = REGISTRY.build("quickstart").with_run(seed=99)
        churned = spec.with_fault("client-churn", {"seed": 5})
        assert churned.faults[0].kwargs["seed"] == 5

    def test_unseeded_faults_get_no_seed(self):
        spec = REGISTRY.build("quickstart").with_fault("ost-crash")
        assert "seed" not in spec.faults[0].kwargs

    def test_unknown_fault_name_rejected(self):
        with pytest.raises(ValueError, match="registered"):
            REGISTRY.build("quickstart").with_fault("nope")

    def test_describe_lists_faults(self):
        spec = REGISTRY.build("quickstart").with_fault(
            "ost-degrade", {"factor": 0.5}
        )
        assert "fault:    ost-degrade [factor=0.5]" in spec.describe()


class TestParameterValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start_s"):
            FAULTS.build("ost-crash", start_s=-1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            FAULTS.build("ost-crash", duration_s=0.0)

    def test_nonpositive_degrade_factor_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            FAULTS.build("ost-degrade", factor=0.0)

    def test_negative_churn_counts_rejected(self):
        with pytest.raises(ValueError, match="leaves"):
            FAULTS.build("client-churn", leaves=-1)

    @pytest.mark.parametrize(
        "fault, param, value",
        [
            ("ost-crash", "start_s", float("nan")),
            ("ost-crash", "start_s", float("inf")),
            ("ost-crash", "duration_s", float("nan")),
            ("ost-degrade", "factor", float("nan")),
            ("ost-degrade", "factor", float("inf")),
            ("net-delay", "factor", float("nan")),
            ("net-delay", "factor", float("inf")),
            ("net-delay", "extra_s", float("nan")),
            ("net-delay", "extra_s", float("inf")),
        ],
    )
    def test_non_finite_value_rejected(self, fault, param, value):
        with pytest.raises(ValueError, match=f"^{param} must be"):
            FAULTS.build(fault, **{param: value})

    def test_permanent_crash_still_accepted(self):
        injector = FAULTS.build("ost-crash", duration_s=float("inf"))
        assert injector.windows() == ((1.0, float("inf")),)

    @pytest.mark.parametrize("fault", BUILTINS)
    def test_never_ending_window_needs_a_duration_cap(self, fault):
        """A window that never closes is legitimate on every windowed
        fault, but a run to client completion behind it may never end:
        ``quickstart`` under a permanent crash used to run forever."""
        spec = REGISTRY.build("quickstart")
        assert spec.run.duration_s is None
        never = {"duration_s": float("inf")}
        with pytest.raises(ValueError, match="never ends .* --duration$"):
            spec.with_fault(fault, never)
        capped = spec.with_run(duration_s=2.0).with_fault(fault, never)
        assert capped.faults[0].kwargs["duration_s"] == float("inf")
