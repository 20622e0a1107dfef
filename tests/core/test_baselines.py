"""Direct tests for the §IV-C *Static BW* baseline's rules."""

import pytest

from repro.core.allocation import TokenAllocationAlgorithm
from repro.core.baselines import install_static_rules
from repro.core.types import AllocationInput
from repro.lustre.nrs import TbfPolicy
from repro.sim.engine import Environment


def tbf_policy():
    return TbfPolicy(Environment())


NODES = {"heavy": 6, "light": 2, "tiny": 1}


@pytest.fixture
def shared_input():
    """One allocation round over every job in ``NODES``."""
    return AllocationInput(
        interval_s=0.1,
        max_token_rate=1000.0,
        demands={"heavy": 80, "light": 10, "tiny": 4},
        nodes=NODES,
    )


class TestInstallStaticRules:
    def test_rates_are_global_node_proportional(self):
        policy = tbf_policy()
        rates = install_static_rules(policy, NODES, max_token_rate=900.0)
        assert rates == {
            "heavy": pytest.approx(600.0),
            "light": pytest.approx(200.0),
            "tiny": pytest.approx(100.0),
        }

    def test_one_rule_per_job_with_priority_ranks(self):
        policy = tbf_policy()
        install_static_rules(policy, NODES, max_token_rate=900.0)
        assert sorted(policy.rule_names()) == [
            "static_heavy",
            "static_light",
            "static_tiny",
        ]
        # Highest node count -> rank 0 (served first on deadline ties).
        assert policy.get_rule("static_heavy").rank == 0
        assert policy.get_rule("static_light").rank == 1
        assert policy.get_rule("static_tiny").rank == 2

    def test_ranks_break_node_ties_by_job_id(self):
        policy = tbf_policy()
        install_static_rules(
            policy, {"b": 2, "a": 2, "c": 1}, max_token_rate=100.0
        )
        assert policy.get_rule("static_a").rank == 0
        assert policy.get_rule("static_b").rank == 1
        assert policy.get_rule("static_c").rank == 2

    def test_rule_rates_sum_to_max_token_rate(self):
        policy = tbf_policy()
        rates = install_static_rules(policy, NODES, max_token_rate=1234.5)
        assert sum(rates.values()) == pytest.approx(1234.5)

    @pytest.mark.parametrize(
        "nodes, rate, match",
        [
            ({}, 100.0, "nodes must not be empty"),
            (NODES, 0.0, "max_token_rate must be positive"),
            (NODES, -5.0, "max_token_rate must be positive"),
            ({"bad": 0}, 100.0, "nodes must be positive"),
            ({"bad": -1}, 100.0, "nodes must be positive"),
        ],
    )
    def test_validation_errors(self, nodes, rate, match):
        with pytest.raises(ValueError, match=match):
            install_static_rules(tbf_policy(), nodes, max_token_rate=rate)

    def test_many_jobs_rank_assignment_is_consistent(self):
        """The precomputed rank map matches sorted order at scale."""
        nodes = {f"job{i:04d}": (i % 7) + 1 for i in range(300)}
        policy = tbf_policy()
        install_static_rules(policy, nodes, max_token_rate=3000.0)
        expected = sorted(nodes, key=lambda j: (-nodes[j], j))
        for rank, job in enumerate(expected):
            assert policy.get_rule(f"static_{job}").rank == rank


class TestAllocationResultContract:
    def test_result_structure(self, shared_input):
        """What every consumer of an allocation result relies on."""
        result = TokenAllocationAlgorithm().allocate(shared_input)
        assert set(result.allocations) <= set(NODES)
        assert result.total_tokens == shared_input.total_tokens
        assert sum(result.allocations.values()) <= result.total_tokens
        for job, allocation in result.per_job.items():
            assert allocation.final == result.allocations[job]
            assert allocation.final >= 0
            assert allocation.utilization >= 0.0
