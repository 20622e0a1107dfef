"""Ablated allocator variants.

The paper motivates three design elements (§III-C); each variant here
removes exactly one, so its contribution shows on the §IV-E workload
(``tests/experiments/test_experiments.py::TestAblation`` checks the first
two):

* ``priority_only``     — step 1 only: adapts to the active set, but no
  borrowing (not work-conserving under bursty demand).
* ``no_recompensation`` — steps 1–2: work-conserving borrowing, but lenders
  are never paid back (long-term fairness lost).
* ``priority_blind_df`` — full pipeline, but the distribution factor ignores
  priority (``DF_x = u_x``): spare tokens flow to whoever is hungriest,
  letting low-priority hogs out-borrow important jobs.
"""

from __future__ import annotations

from repro.core.allocation import TokenAllocationAlgorithm

__all__ = [
    "priority_only",
    "no_recompensation",
    "priority_blind_df",
    "VARIANTS",
]


def priority_only() -> TokenAllocationAlgorithm:
    """Step 1 only (dynamic proportional shares, no borrowing)."""
    return TokenAllocationAlgorithm(
        enable_redistribution=False,
        enable_recompensation=False,
    )


def no_recompensation() -> TokenAllocationAlgorithm:
    """Steps 1–2 (borrowing without repayment)."""
    return TokenAllocationAlgorithm(enable_recompensation=False)


def priority_blind_df() -> TokenAllocationAlgorithm:
    """Full pipeline with a priority-blind distribution factor."""
    return TokenAllocationAlgorithm(df_priority_aware=False)


#: Name → factory for every variant, including the full algorithm.
VARIANTS = {
    "full": TokenAllocationAlgorithm,
    "priority_only": priority_only,
    "no_recompensation": no_recompensation,
    "priority_blind_df": priority_blind_df,
}
