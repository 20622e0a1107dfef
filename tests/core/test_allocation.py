"""Hand-computed unit tests for the three-step token allocation algorithm.

The two-round scenario below was worked through by hand from Eq. 1-20 (see
the inline arithmetic); it exercises priority allocation, surplus
redistribution with deficit prioritisation, the first-round exclusion from
re-compensation, and a full reclaim cycle in round two.
"""

import math

import pytest

from repro.core.allocation import TokenAllocationAlgorithm
from repro.core.types import AllocationInput, JobInfo

NODES = {"A": 1, "B": 1, "C": 3, "D": 5}  # priorities 10/10/30/50 %
NAN, INF = math.nan, math.inf


def make_input(demands, interval=0.1, rate=1000.0, nodes=NODES):
    return AllocationInput(
        interval_s=interval,
        max_token_rate=rate,
        demands=demands,
        nodes=nodes,
    )


class TestInitialAllocation:
    def test_priority_proportional_split(self):
        algo = TokenAllocationAlgorithm(
            enable_redistribution=False, enable_recompensation=False
        )
        result = algo.allocate(make_input({"A": 10, "B": 10, "C": 30, "D": 50}))
        assert result.allocations == {"A": 10, "B": 10, "C": 30, "D": 50}
        assert result.total_tokens == 100

    def test_only_active_jobs_allocated(self):
        algo = TokenAllocationAlgorithm(
            enable_redistribution=False, enable_recompensation=False
        )
        # Only C and D active: they split the whole budget 3:5.
        result = algo.allocate(make_input({"C": 30, "D": 50}))
        assert result.allocations == {"C": 38, "D": 62}
        assert "A" not in result.allocations

    def test_single_job_gets_everything(self):
        algo = TokenAllocationAlgorithm()
        result = algo.allocate(make_input({"A": 500}))
        assert result.allocations == {"A": 100}

    def test_fractional_budget_floor(self):
        algo = TokenAllocationAlgorithm()
        inputs = make_input({"A": 5}, interval=0.1, rate=1005.0)
        assert inputs.total_tokens == 100  # floor(100.5)


class TestRedistribution:
    def test_hand_computed_round(self):
        """Round 1 of the hand-worked scenario.

        u = d/alpha_init (first round): A 5.0, B 0.5, C 1.0, D 1.0.
        Surplus: only B lends 5.  DF: A 5.5, B .05, C .3, D .5 (sum 6.35).
        Raw shares of 5: A 4.33, B .04, C .24, D .39 -> floors 4,0,0,0 and
        the leftover token goes to D (largest remainder .39).
        """
        algo = TokenAllocationAlgorithm()
        result = algo.allocate(make_input({"A": 50, "B": 5, "C": 30, "D": 50}))
        assert result.surplus_pool == 5
        assert result.allocations == {"A": 14, "B": 5, "C": 30, "D": 51}
        assert algo.records.snapshot() == {"A": -4, "B": 5, "C": 0, "D": -1}
        # No re-compensation on round one (records were all zero before).
        assert result.reclaimed_pool == 0

    def test_no_surplus_no_changes(self):
        algo = TokenAllocationAlgorithm()
        result = algo.allocate(make_input({"A": 10, "B": 10, "C": 30, "D": 50}))
        assert result.surplus_pool == 0
        assert result.allocations == {"A": 10, "B": 10, "C": 30, "D": 50}
        assert algo.records.total() == 0

    def test_deficit_jobs_prioritised_over_hoarders(self):
        """A deficit job (u>1) must out-receive a same-priority idle one."""
        nodes = {"busy": 1, "idle": 1, "lender": 2}
        algo = TokenAllocationAlgorithm()
        result = algo.allocate(
            make_input({"busy": 200, "idle": 10, "lender": 1}, nodes=nodes)
        )
        a = result.per_job
        assert a["busy"].redistribution_share > a["idle"].redistribution_share
        assert a["lender"].surplus > 0

    def test_conservation_every_round(self):
        algo = TokenAllocationAlgorithm()
        for demands in (
            {"A": 50, "B": 5, "C": 30, "D": 50},
            {"A": 20, "B": 30, "C": 30, "D": 50},
            {"B": 1, "C": 500},
            {"A": 7},
        ):
            result = algo.allocate(make_input(demands))
            assert sum(result.allocations.values()) == result.total_tokens
            assert algo.records.total() == 0


class TestRecompensation:
    def test_hand_computed_reclaim_round(self):
        """Round 2 of the hand-worked scenario.

        After round 1: records A -4, B +5, C 0, D -1; prev alloc
        A 14, B 5, C 30, D 51.  Round 2 demands A 20, B 30, C 30, D 50:
        no surplus; J+ = {B}, J- = {A, D}.  u_B = 30/5 = 6;
        future u_B = 30/10 = 3 -> head-room 0; C = 0.1*(6+0)/2 = 0.3.
        Reclaims: A min(4, floor(.3*10)=3) = 3; D min(1, floor(.3*50)=15) = 1.
        B receives all 4.
        """
        algo = TokenAllocationAlgorithm()
        algo.allocate(make_input({"A": 50, "B": 5, "C": 30, "D": 50}))
        result = algo.allocate(make_input({"A": 20, "B": 30, "C": 30, "D": 50}))
        assert result.reclaimed_pool == 4
        assert result.allocations == {"A": 7, "B": 14, "C": 30, "D": 49}
        assert algo.records.snapshot() == {"A": -1, "B": 1, "C": 0, "D": 0}

    def test_reclaim_bounded_by_debt(self):
        for job_alloc in (
            TokenAllocationAlgorithm().allocate(
                make_input({"A": 50, "B": 5, "C": 30, "D": 50})
            ).per_job
        ).values():
            # Reclaim can never exceed the borrower's post-redistribution debt.
            record_rd = (
                job_alloc.record_before
                + job_alloc.surplus
                - job_alloc.redistribution_share
            )
            assert job_alloc.reclaimed <= max(0, -record_rd)

    def test_no_positive_records_no_reclaim(self):
        algo = TokenAllocationAlgorithm()
        algo.allocate(make_input({"A": 10, "B": 10, "C": 30, "D": 50}))
        result = algo.allocate(make_input({"A": 10, "B": 10, "C": 30, "D": 50}))
        assert result.reclaimed_pool == 0

    def test_disabled_recompensation_skips_reclaim(self):
        algo = TokenAllocationAlgorithm(enable_recompensation=False)
        algo.allocate(make_input({"A": 50, "B": 5, "C": 30, "D": 50}))
        result = algo.allocate(make_input({"A": 20, "B": 30, "C": 30, "D": 50}))
        assert result.reclaimed_pool == 0
        # B keeps its positive record; nobody pays it back.
        assert algo.records.get("B") > 0

    def test_lender_made_whole_over_time(self):
        """A lender whose demand rises is recompensated across rounds."""
        algo = TokenAllocationAlgorithm()
        nodes = {"lender": 1, "hog": 1}
        # Lender idles (demand 1) while hog over-consumes for a while.
        for _ in range(5):
            algo.allocate(make_input({"lender": 1, "hog": 200}, nodes=nodes))
        assert algo.records.get("lender") > 0
        debt = algo.records.get("hog")
        assert debt < 0
        # Lender wakes up hungry: reclaim should drive records toward zero.
        for _ in range(10):
            algo.allocate(make_input({"lender": 200, "hog": 200}, nodes=nodes))
        assert algo.records.get("hog") > debt
        assert algo.records.get("lender") < algo.records.get("lender") + 1


class TestEdgeCases:
    def test_inactive_jobs_keep_records(self):
        algo = TokenAllocationAlgorithm()
        algo.allocate(make_input({"A": 50, "B": 5, "C": 30, "D": 50}))
        record_b = algo.records.get("B")
        # B goes idle; its record must survive untouched.
        algo.allocate(make_input({"A": 20, "C": 30, "D": 50}))
        assert algo.records.get("B") == record_b

    def test_forget_job_clears_state(self):
        algo = TokenAllocationAlgorithm()
        algo.allocate(make_input({"A": 50, "B": 5, "C": 30, "D": 50}))
        algo.forget_job("B")
        assert algo.records.get("B") == 0
        assert algo.previous_allocation("B") is None

    def test_zero_demand_job_rejected(self):
        with pytest.raises(ValueError):
            make_input({"A": 0})

    @pytest.mark.parametrize(
        "field, value, line",
        [
            ("interval_s", NAN, "interval_s must be a finite positive number, got nan"),
            ("interval_s", INF, "interval_s must be a finite positive number, got inf"),
            (
                "max_token_rate",
                NAN,
                "max_token_rate must be a finite positive number, got nan",
            ),
            (
                "max_token_rate",
                INF,
                "max_token_rate must be a finite positive number, got inf",
            ),
            (
                "demands",
                {"A": NAN},
                "job 'A': active jobs must have a finite positive demand, "
                "got nan (inactive jobs are simply omitted)",
            ),
            (
                "demands",
                {"A": INF},
                "job 'A': active jobs must have a finite positive demand, "
                "got inf (inactive jobs are simply omitted)",
            ),
            (
                "nodes",
                {"A": NAN},
                "job 'A': nodes must be a finite positive number, got nan",
            ),
            (
                "nodes",
                {"A": INF},
                "job 'A': nodes must be a finite positive number, got inf",
            ),
        ],
        ids=[
            "interval_s=nan",
            "interval_s=inf",
            "max_token_rate=nan",
            "max_token_rate=inf",
            "demand=nan",
            "demand=inf",
            "nodes=nan",
            "nodes=inf",
        ],
    )
    def test_non_finite_input_rejected_with_one_line(self, field, value, line):
        """Each was accepted, and the first round failed with an error that
        named no field: ``cannot convert float NaN to integer``, or an
        ``OverflowError`` for an infinite rate or demand."""
        args = dict(
            interval_s=0.1, max_token_rate=1000.0, demands={"A": 5}, nodes=NODES
        )
        args[field] = value
        with pytest.raises(ValueError) as info:
            AllocationInput(**args)
        assert str(info.value) == line

    def test_infinite_budget_rejected(self):
        """Finite fields whose product overflows: ``int(inf)`` again."""
        with pytest.raises(
            ValueError, match="^max_token_rate \\* interval_s is too large"
        ):
            make_input({"A": 5}, interval=10.0, rate=1e308)

    @pytest.mark.parametrize("nodes", [2.5, True, NAN, 0])
    def test_job_info_nodes_must_be_an_int_count(self, nodes):
        line = f"^job 'j': nodes must be an int >= 1, got {nodes!r}$"
        with pytest.raises(ValueError, match=line):
            JobInfo("j", nodes)

    def test_unknown_nodes_rejected(self):
        with pytest.raises(ValueError):
            AllocationInput(
                interval_s=0.1,
                max_token_rate=1000,
                demands={"ghost": 5},
                nodes={"A": 1},
            )

    def test_allocations_never_negative(self):
        algo = TokenAllocationAlgorithm()
        # Adversarial: tiny budget, many jobs, wild demand swings.
        nodes = {f"j{i}": i + 1 for i in range(8)}
        for demand in (1, 500, 3, 997, 2):
            demands = {j: demand + i for i, j in enumerate(sorted(nodes))}
            result = algo.allocate(
                make_input(demands, interval=0.01, rate=500.0, nodes=nodes)
            )
            assert all(v >= 0 for v in result.allocations.values())

    def test_rounds_counter(self):
        algo = TokenAllocationAlgorithm()
        algo.allocate(make_input({"A": 1}))
        algo.allocate(make_input({"A": 1}))
        assert algo.rounds_run == 2
