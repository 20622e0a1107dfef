"""Differential test: the allocator against the dict-based implementation.

``ReferenceAllocator`` and ``ReferenceRemainders`` below are verbatim copies
of ``TokenAllocationAlgorithm.allocate`` (with its helpers) and
``RemainderStore.integerize`` as they stood when the allocator was rewritten
over index-aligned per-job lists.  The rewrite promises the same float
expressions in the same order, so every round must agree *exactly*: the
whole ``AllocationResult``, the remainder store, the ledger and the previous
allocation of every job.

Two regimes are generated:

* ``many-tenants``-like: a 5-token budget over up to 48 active jobs with
  small demands.  The surplus pool is nearly always 0 there, so this
  mostly exercises step 1 and the largest-remainder correction;
* ``experiments/overhead.py``-like: a 10,000-token budget with demands
  1–500, so redistribution and re-compensation run.

The reference's three float sums fold left to right (``fold_sum``), as the
built-in ``sum()`` did on Python 3.11, where it was copied; from 3.12 the
built-in compensates, which moves last bits that the allocator, folding
too, does not.

This pins the rewrite to its predecessor; it is not an independent oracle
of paper §III-C.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ablation import VARIANTS
from repro.core.allocation import TokenAllocationAlgorithm
from repro.core.prediction import (
    DemandEstimator,
    EwmaEstimator,
    LastValueEstimator,
    PeakHoldEstimator,
)
from repro.core.records import JobRecords
from repro.core.types import (
    AllocationInput,
    AllocationResult,
    JobAllocation,
)
from repro.numeric import fold_sum

_EPS = 1e-9


class ReferenceRemainders:
    """``RemainderStore`` with the dict-based ``integerize``."""

    def __init__(self) -> None:
        self._rho: Dict[str, float] = {}

    def get(self, job_id: str) -> float:
        return self._rho.get(job_id, 0.0)

    def snapshot(self) -> Dict[str, float]:
        return dict(self._rho)

    def drop(self, job_id: str) -> None:
        """Forget a job's remainder (used when a job is retired)."""
        self._rho.pop(job_id, None)

    def integerize(self, raw: Mapping[str, float], total: int) -> Dict[str, int]:
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        if not raw:
            if total != 0:
                raise ValueError(f"cannot distribute {total} tokens to no jobs")
            return {}
        raw_sum = fold_sum(raw.values())
        if abs(raw_sum - total) > 1e-6 * max(1.0, total):
            raise ValueError(
                f"raw grants sum to {raw_sum!r}, expected total {total}"
            )

        granted: Dict[str, int] = {}
        for job in sorted(raw):  # deterministic iteration
            value = raw[job] + self._rho.get(job, 0.0)
            floored = int(value + _EPS)  # floor with fp guard
            # A deeply negative remainder could push `value` below 0; a
            # grant can never be negative, so clamp and carry the debt.
            if floored < 0:
                floored = 0
            granted[job] = floored
            self._rho[job] = value - floored

        # Largest-remainder correction (paper: adjust the job with the
        # largest remainder first, ±1 at a time, until the budget matches).
        # Implemented as sorted passes — one sort serves up to len(raw)
        # single-token adjustments, keeping a round O(n log n) overall
        # instead of O(n² log n) with a fresh argmax per token.
        diff = total - sum(granted.values())
        while diff > 0:  # leftover: grant extra tokens, largest ρ first
            order = sorted(granted, key=lambda j: (-self._rho[j], j))
            for job in order:
                if diff == 0:
                    break
                granted[job] += 1
                self._rho[job] -= 1.0
                diff -= 1
        while diff < 0:  # excess: withdraw tokens, largest ρ first
            order = [
                j
                for j in sorted(granted, key=lambda j: (-self._rho[j], j))
                if granted[j] > 0
            ]
            if not order:  # pragma: no cover - budget can't be negative
                raise RuntimeError("excess correction with no withdrawable job")
            for job in order:
                if diff == 0:
                    break
                if granted[job] > 0:
                    granted[job] -= 1
                    self._rho[job] += 1.0
                    diff += 1
        return granted


class ReferenceAllocator:
    """``TokenAllocationAlgorithm`` with the dict-based ``allocate``."""

    def __init__(
        self,
        enable_redistribution: bool = True,
        enable_recompensation: bool = True,
        df_priority_aware: bool = True,
        demand_estimator: Optional[DemandEstimator] = None,
    ) -> None:
        self.enable_redistribution = enable_redistribution
        self.enable_recompensation = enable_recompensation
        self.df_priority_aware = df_priority_aware
        self.demand_estimator = demand_estimator or LastValueEstimator()
        self.records = JobRecords()
        self.remainders = ReferenceRemainders()
        self._previous_allocation: Dict[str, int] = {}
        self.rounds_run = 0

    def allocate(self, inputs: AllocationInput) -> AllocationResult:
        """Run one allocation round and return the per-job token grants."""
        active = sorted(inputs.demands)
        total = inputs.total_tokens
        demands = {job: int(inputs.demands[job]) for job in active}
        for job in active:
            self.demand_estimator.observe(job, demands[job])

        # -- Step 1: priority-based initial allocation (Eq. 1-2) ------------
        total_nodes = sum(inputs.nodes[job] for job in active)
        priority = {job: inputs.nodes[job] / total_nodes for job in active}
        raw_initial = {job: total * priority[job] for job in active}
        alpha = self.remainders.integerize(raw_initial, total)
        initial = dict(alpha)

        # -- Step 2: redistribution of surplus tokens (Eq. 3-8) --------------
        utilization = {
            job: self._utilization(job, demands[job], alpha[job]) for job in active
        }
        record_before = {job: self.records.get(job) for job in active}
        surplus = {job: 0 for job in active}
        share_rd = {job: 0 for job in active}
        record_rd = dict(record_before)

        if self.enable_redistribution:
            surplus = {
                job: max(0, alpha[job] - demands[job]) for job in active
            }
            pool = sum(surplus.values())
            if pool > 0:
                df = self._distribution_factors(active, utilization, priority)
                df_sum = fold_sum(df.values())
                if df_sum > 0:
                    raw_shares = {
                        job: pool * df[job] / df_sum for job in active
                    }
                    share_rd = self.remainders.integerize(raw_shares, pool)
                    for job in active:
                        alpha[job] = alpha[job] - surplus[job] + share_rd[job]
                        record_rd[job] = (
                            record_before[job] + surplus[job] - share_rd[job]
                        )
                else:  # pragma: no cover - u>0 for active jobs ⇒ df_sum>0
                    surplus = {job: 0 for job in active}
        after_rd = dict(alpha)

        # -- Step 3: re-compensation for borrowed tokens (Eq. 9-20) -----------
        reclaimed = {job: 0 for job in active}
        share_rc = {job: 0 for job in active}
        record_rc = dict(record_rd)

        if self.enable_recompensation:
            plus = [
                j for j in active if record_before[j] > 0 and record_rd[j] > 0
            ]
            minus = [
                j for j in active if record_before[j] < 0 and record_rd[j] < 0
            ]
            if plus and minus:
                coefficient = self._reclaim_coefficient(
                    plus, priority, utilization, demands, after_rd
                )
                for job in minus:
                    bound = min(
                        -record_rd[job],  # the debt (|r| with r < 0)
                        int(coefficient * after_rd[job]),  # Eq. 14 floor
                        after_rd[job],  # cannot take more than it has
                    )
                    reclaimed[job] = max(0, bound)
                pool = sum(reclaimed.values())
                if pool > 0:
                    df = self._distribution_factors(plus, utilization, priority)
                    df_sum = fold_sum(df.values())
                    raw_shares = {job: pool * df[job] / df_sum for job in plus}
                    share_rc = {job: 0 for job in active}
                    share_rc.update(self.remainders.integerize(raw_shares, pool))
                    for job in minus:
                        alpha[job] -= reclaimed[job]
                        record_rc[job] = record_rd[job] + reclaimed[job]
                    for job in plus:
                        alpha[job] += share_rc[job]
                        record_rc[job] = record_rd[job] - share_rc[job]

        # -- persist state & build the result ---------------------------------
        per_job: Dict[str, JobAllocation] = {}
        for job in active:
            self.records.set(job, record_rc[job])
            self._previous_allocation[job] = alpha[job]
            per_job[job] = JobAllocation(
                job_id=job,
                priority=priority[job],
                demand=demands[job],
                utilization=utilization[job],
                initial=initial[job],
                surplus=surplus[job],
                redistribution_share=share_rd[job],
                after_redistribution=after_rd[job],
                reclaimed=reclaimed[job],
                recompensation_share=share_rc[job],
                final=alpha[job],
                record_before=record_before[job],
                record_after=record_rc[job],
            )
        self.rounds_run += 1
        return AllocationResult(
            allocations=dict(alpha),
            per_job=per_job,
            total_tokens=total,
            surplus_pool=sum(surplus.values()),
            reclaimed_pool=sum(reclaimed.values()),
        )

    def _utilization(self, job: str, demand: int, current_initial: int) -> float:
        denominator = self._previous_allocation.get(job, 0)
        if denominator <= 0:
            denominator = current_initial
        if denominator <= 0:
            denominator = 1
        return demand / denominator

    def _distribution_factors(
        self,
        jobs,
        utilization: Dict[str, float],
        priority: Dict[str, float],
    ) -> Dict[str, float]:
        factors = {}
        for job in jobs:
            u, p = utilization[job], priority[job]
            if not self.df_priority_aware:
                factors[job] = u
            elif u > 1.0:
                factors[job] = u + u * p
            else:
                factors[job] = u * p
        return factors

    def _reclaim_coefficient(
        self,
        plus,
        priority: Dict[str, float],
        utilization: Dict[str, float],
        demands: Dict[str, int],
        after_rd: Dict[str, int],
    ) -> float:
        coefficient = 0.0
        for job in plus:
            estimated = self.demand_estimator.estimate(job)
            if after_rd[job] > 0:
                future_u = estimated / after_rd[job]
            else:
                future_u = float("inf")
            head_room = max(0.0, 1.0 - future_u)
            coefficient += (
                priority[job] * (max(1.0, utilization[job]) + head_room) / 2.0
            )
        return coefficient

    def previous_allocation(self, job_id: str) -> Optional[int]:
        return self._previous_allocation.get(job_id)

    def forget_job(self, job_id: str) -> None:
        self.records.set(job_id, 0)
        self.remainders.drop(job_id)
        self._previous_allocation.pop(job_id, None)


# -- strategies ----------------------------------------------------------------

#: The AdapTBF variants as constructor flags (mirrors ``ablation.VARIANTS``).
VARIANT_FLAGS = {
    "full": {},
    "priority_only": {
        "enable_redistribution": False,
        "enable_recompensation": False,
    },
    "no_recompensation": {"enable_recompensation": False},
    "priority_blind_df": {"df_priority_aware": False},
}

ESTIMATORS = {
    "last-value": LastValueEstimator,
    "ewma": lambda: EwmaEstimator(alpha=0.4),
    "peak-hold": lambda: PeakHoldEstimator(window=3),
}

#: Node counts cycle 1/2/4/8 like ``client-swarm``'s priority tiers.
TENANTS = [f"swarm{i + 1}" for i in range(64)]
TENANT_NODES = {job: 2 ** (i % 4) for i, job in enumerate(TENANTS)}

POPULATION = [f"job{i}" for i in range(24)]
POPULATION_NODES = {job: 1 + (7 * i) % 31 for i, job in enumerate(POPULATION)}


def _history(jobs, max_jobs, max_demand, max_rounds):
    """Rounds of ``{job: demand}``, each optionally retiring one job after."""
    round_ = st.tuples(
        st.dictionaries(
            keys=st.sampled_from(jobs),
            values=st.integers(min_value=1, max_value=max_demand),
            min_size=1,
            max_size=max_jobs,
        ),
        st.one_of(st.none(), st.sampled_from(jobs)),
    )
    return st.lists(round_, min_size=1, max_size=max_rounds)


def _assert_same_state(new, ref, jobs):
    assert new.remainders.snapshot() == ref.remainders.snapshot()
    assert new.records.snapshot() == ref.records.snapshot()
    for job in jobs:
        assert new.previous_allocation(job) == ref.previous_allocation(job)
    assert new.rounds_run == ref.rounds_run


def _run_both(history, variant, estimator, nodes, interval_s, max_token_rate):
    flags = VARIANT_FLAGS[variant]
    new = TokenAllocationAlgorithm(
        **flags, demand_estimator=ESTIMATORS[estimator]()
    )
    ref = ReferenceAllocator(**flags, demand_estimator=ESTIMATORS[estimator]())
    for demands, retired in history:
        inputs = AllocationInput(
            interval_s=interval_s,
            max_token_rate=max_token_rate,
            demands=demands,
            nodes=nodes,
        )
        assert new.allocate(inputs) == ref.allocate(inputs)
        _assert_same_state(new, ref, nodes)
        if retired is not None:
            new.forget_job(retired)
            ref.forget_job(retired)
            _assert_same_state(new, ref, nodes)


def test_variant_flags_match_the_registry():
    for name, flags in VARIANT_FLAGS.items():
        algo = VARIANTS[name]()
        assert algo.enable_redistribution == flags.get("enable_redistribution", True)
        assert algo.enable_recompensation == flags.get("enable_recompensation", True)
        assert algo.df_priority_aware == flags.get("df_priority_aware", True)


@given(
    history=_history(TENANTS, max_jobs=48, max_demand=6, max_rounds=30),
    variant=st.sampled_from(sorted(VARIANT_FLAGS)),
    estimator=st.sampled_from(sorted(ESTIMATORS)),
)
@settings(max_examples=150, deadline=None)
def test_many_tenants_budget_matches_reference(history, variant, estimator):
    """5 tokens per 20 ms round over up to 48 tenants."""
    _run_both(history, variant, estimator, TENANT_NODES, 0.02, 250.0)


@given(
    history=_history(POPULATION, max_jobs=24, max_demand=500, max_rounds=20),
    variant=st.sampled_from(sorted(VARIANT_FLAGS)),
    estimator=st.sampled_from(sorted(ESTIMATORS)),
)
@settings(max_examples=200, deadline=None)
def test_overhead_budget_matches_reference(history, variant, estimator):
    """10,000 tokens per 100 ms round with demands 1–500."""
    _run_both(history, variant, estimator, POPULATION_NODES, 0.1, 100_000.0)


def test_regimes_exercise_redistribution_and_recompensation():
    """Fixed histories in each regime hit the steps they are meant to."""
    algo = TokenAllocationAlgorithm()
    pools = []
    for demands in (
        {"job0": 400, "job1": 5, "job2": 300, "job3": 2},
        {"job0": 3, "job1": 450, "job2": 4, "job3": 480},
        {"job0": 400, "job1": 480, "job2": 300, "job3": 490},
    ):
        result = algo.allocate(
            AllocationInput(
                interval_s=0.1,
                max_token_rate=100_000.0,
                demands=demands,
                nodes=POPULATION_NODES,
            )
        )
        pools.append((result.surplus_pool, result.reclaimed_pool))
    assert any(surplus > 0 for surplus, _ in pools)
    assert any(reclaimed > 0 for _, reclaimed in pools)


def test_unread_trace_is_built_on_first_access(monkeypatch):
    """A round whose trace nobody reads builds no ``JobAllocation``;
    ``per_job`` read afterwards equals the reference's eager trace."""
    built = []

    def counting(build):
        def spy(*args, **kwargs):
            built.append(1)
            return build(*args, **kwargs)

        return staticmethod(spy)

    new = TokenAllocationAlgorithm()
    ref = ReferenceAllocator()
    for demands in (
        {"job0": 400, "job1": 5, "job2": 300, "job3": 2},
        {"job0": 3, "job1": 450, "job2": 4, "job3": 480},
        {"job0": 400, "job1": 480, "job2": 300, "job3": 490},
    ):
        inputs = AllocationInput(
            interval_s=0.1,
            max_token_rate=100_000.0,
            demands=demands,
            nodes=POPULATION_NODES,
        )
        expected = ref.allocate(inputs)
        with monkeypatch.context() as patch:
            patch.setattr(JobAllocation, "_make", counting(JobAllocation._make))
            patch.setattr(JobAllocation, "__new__", counting(JobAllocation.__new__))
            result = new.allocate(inputs)
            assert result.allocations == expected.allocations
            assert list(result.per_job) == sorted(demands)
            assert len(result.per_job) == len(demands)
            assert built == []
            assert result.per_job == expected.per_job
            assert len(built) == len(demands)
            assert result == expected
            assert repr(result) == repr(expected)
            assert len(built) == len(demands)  # built once
        built.clear()
