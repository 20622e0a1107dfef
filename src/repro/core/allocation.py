"""The three-step Token Allocation Algorithm (paper §III-C).

One instance runs per OST, fully decentralized: it sees only that OST's
active-job demands and produces the token allocation for the next observation
period.  The three sequential steps are:

**1. Priority-based initial allocation** (Eq. 1–2)
    ``p_x = n_x / Σ n`` over active jobs; ``α_x = T_i · p_x · Δt``.

**2. Redistribution of surplus tokens** (Eq. 3–8)
    Utilization ``u_x = d_x / α^{t-1}_x``; surplus ``T^x_s = max(0, α_x − d_x)``
    is pooled and redistributed by the distribution factor

    .. math:: DF_x = \\begin{cases} u_x + u_x p_x & u_x > 1 \\\\
                                    u_x p_x       & u_x \\le 1 \\end{cases}

    so deficit jobs dominate, ranked by priority within each class.  The
    record ledger moves opposite to tokens (lenders up, borrowers down).

**3. Re-compensation for borrowed tokens** (Eq. 9–20)
    Lenders (``r > 0`` before *and* after step 2) reclaim from borrowers
    (``r < 0`` before and after), bounded by each borrower's debt and scaled
    by the reclaim coefficient ``C`` built from priority, current utilization
    and estimated future utilization (``d̄^{t+Δt} = d^t``).

Every distribution passes through the shared
:class:`~repro.core.remainders.RemainderStore` so integer totals are exact
and fractions are repaid over time (§III-C4).

Interpretation choices where the paper under-specifies (DESIGN.md
deviations 1, 4 and 5):
``u_x`` for first-seen jobs falls back to the current initial allocation;
``C`` is a scalar (the Eq. 13 summation leaves no ``x`` dependence); the
reclaim from a borrower is additionally clamped to its post-redistribution
allocation so allocations can never go negative.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.prediction import DemandEstimator, LastValueEstimator
from repro.core.records import JobRecords
from repro.core.remainders import RemainderStore
from repro.core.types import (
    AllocationInput,
    AllocationResult,
    JobAllocation,
)

__all__ = ["TokenAllocationAlgorithm"]


class TokenAllocationAlgorithm:
    """Stateful per-OST token allocator.

    Parameters
    ----------
    enable_redistribution:
        Disable to stop after step 1 (ablation: priority-only, still adapts
        to the active set but is not work-conserving).
    enable_recompensation:
        Disable to stop after step 2 (ablation: borrowing without paying
        back, which sacrifices long-term fairness).
    df_priority_aware:
        When False, the distribution factor ignores priority
        (``DF_x = u_x``), an ablation of the Eq. 6 design.
    demand_estimator:
        Predictor for next-period demand used in the re-compensation
        step's future-utilization score (Eq. 11-12).  Defaults to the
        paper's last-value assumption; see :mod:`repro.core.prediction`
        for the §IV-E "pattern hint" extensions.

    Notes
    -----
    The instance keeps three pieces of state across rounds: the previous
    final allocation per job (for ``u_x``), the record ledger and the
    remainder store.  Everything else is recomputed each round, which is why
    the paper measures O(n) time per round (§IV-G).
    """

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
        self.remainders = RemainderStore()
        self._previous_allocation: Dict[str, int] = {}
        self.rounds_run = 0

    # ------------------------------------------------------------------ API --
    def allocate(self, inputs: AllocationInput) -> AllocationResult:
        """Run one allocation round and return the per-job token grants.

        Each step is one pass over index-aligned per-job lists in sorted
        job order, so sums and float expressions run in a fixed order.
        """
        active = sorted(inputs.demands)
        count = len(active)
        total = inputs.total_tokens
        demand_of, nodes_of = inputs.demands, inputs.nodes
        demands = [int(demand_of[job]) for job in active]
        observe = self.demand_estimator.observe
        for job, demand in zip(active, demands):
            observe(job, demand)
        remainders = self.remainders

        # -- Step 1: priority-based initial allocation (Eq. 1-2) ------------
        nodes = [nodes_of[job] for job in active]
        total_nodes = sum(nodes)
        priority = [n / total_nodes for n in nodes]
        initial = remainders.integerize_aligned(
            active, [total * p for p in priority], total
        )

        # -- Step 2: redistribution of surplus tokens (Eq. 3-8) --------------
        # Eq. 3 with the DESIGN.md deviation-1 fallback chain: no previous
        # allocation (first time active) falls back to the current initial
        # allocation, then to 1 token.
        previous = self._previous_allocation
        utilization = [
            demand / (prev if prev > 0 else alpha if alpha > 0 else 1)
            for demand, prev, alpha in zip(
                demands, [previous.get(job, 0) for job in active], initial
            )
        ]
        record_before = self.records.get_many(active)
        zeros = [0] * count
        surplus = share_rd = zeros
        after_rd = initial
        record_rd = record_before

        if self.enable_redistribution:
            surplus = [a - d if a > d else 0 for a, d in zip(initial, demands)]
            pool = sum(surplus)
            if pool > 0:
                df = self._distribution_factors(utilization, priority)
                df_sum = sum(df)
                if df_sum > 0:
                    share_rd = remainders.integerize_aligned(
                        active, [pool * f / df_sum for f in df], pool
                    )
                    after_rd = [
                        a - s + g for a, s, g in zip(initial, surplus, share_rd)
                    ]
                    record_rd = [
                        r + s - g for r, s, g in zip(record_before, surplus, share_rd)
                    ]
                else:  # pragma: no cover - u>0 for active jobs ⇒ df_sum>0
                    surplus = zeros

        # -- Step 3: re-compensation for borrowed tokens (Eq. 9-20) -----------
        final = after_rd
        reclaimed = share_rc = zeros
        record_rc = record_rd

        if self.enable_recompensation and any(record_before):
            plus = [
                i
                for i in range(count)
                if record_before[i] > 0 and record_rd[i] > 0
            ]
            minus = [
                i
                for i in range(count)
                if record_before[i] < 0 and record_rd[i] < 0
            ]
            if plus and minus:
                lenders = [active[i] for i in plus]
                lender_priority = [priority[i] for i in plus]
                lender_utilization = [utilization[i] for i in plus]
                coefficient = self._reclaim_coefficient(
                    lenders,
                    lender_priority,
                    lender_utilization,
                    [after_rd[i] for i in plus],
                )
                reclaimed = list(zeros)
                for i in minus:
                    bound = min(
                        -record_rd[i],  # the debt (|r| with r < 0)
                        int(coefficient * after_rd[i]),  # Eq. 14 floor
                        after_rd[i],  # cannot take more than it has
                    )
                    reclaimed[i] = max(0, bound)
                pool = sum(reclaimed)
                if pool > 0:
                    df = self._distribution_factors(
                        lender_utilization, lender_priority
                    )
                    df_sum = sum(df)
                    shares = remainders.integerize_aligned(
                        lenders, [pool * f / df_sum for f in df], pool
                    )
                    final = list(after_rd)
                    record_rc = list(record_rd)
                    share_rc = list(zeros)
                    for i in minus:
                        final[i] -= reclaimed[i]
                        record_rc[i] = record_rd[i] + reclaimed[i]
                    for i, share in zip(plus, shares):
                        share_rc[i] = share
                        final[i] += share
                        record_rc[i] = record_rd[i] - share

        # -- persist state & build the result ---------------------------------
        self.records.set_many(zip(active, record_rc))
        previous.update(zip(active, final))
        self.rounds_run += 1
        traces = map(
            JobAllocation._make,
            zip(
                active,
                priority,
                demands,
                utilization,
                initial,
                surplus,
                share_rd,
                after_rd,
                reclaimed,
                share_rc,
                final,
                record_before,
                record_rc,
            ),
        )
        return AllocationResult(
            allocations=dict(zip(active, final)),
            per_job=dict(zip(active, traces)),
            total_tokens=total,
            surplus_pool=sum(surplus),
            reclaimed_pool=sum(reclaimed),
        )

    # --------------------------------------------------------------- helpers --
    def _distribution_factors(
        self, utilization: List[float], priority: List[float]
    ) -> List[float]:
        """Eq. 6 (also reused as the recompensation factor, Eq. 18)."""
        if not self.df_priority_aware:
            return list(utilization)
        return [
            u + u * p if u > 1.0 else u * p
            for u, p in zip(utilization, priority)
        ]

    def _reclaim_coefficient(
        self,
        plus: List[str],
        priority: List[float],
        utilization: List[float],
        after_rd: List[int],
    ) -> float:
        """Eq. 12-13: the scalar reclaim coefficient over ``J+``.

        Future demand ``d̄`` comes from the configured estimator (the
        paper's Eq. 11 default: last value, ``d̄ = d``); an allocation of
        zero makes the estimated future utilization infinite, i.e. no
        head-room discount.  The lists are aligned with ``plus``.
        """
        estimate = self.demand_estimator.estimate
        coefficient = 0.0
        for job, p, u, alpha in zip(plus, priority, utilization, after_rd):
            estimated = estimate(job)
            if alpha > 0:
                future_u = estimated / alpha
            else:
                future_u = float("inf")
            head_room = max(0.0, 1.0 - future_u)
            coefficient += p * (max(1.0, u) + head_room) / 2.0
        return coefficient

    # ------------------------------------------------------------ inspection --
    def previous_allocation(self, job_id: str) -> Optional[int]:
        return self._previous_allocation.get(job_id)

    def forget_job(self, job_id: str) -> None:
        """Drop all state for a retired job (record, remainder, history)."""
        self.records.set(job_id, 0)
        self.remainders.drop(job_id)
        self._previous_allocation.pop(job_id, None)
