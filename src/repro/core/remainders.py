"""Fractional-token remainder accounting (paper §III-C4, Eq. 21–25).

Token rates are integers per observation period, but every distribution step
(priority allocation, surplus shares, reclaim shares) produces fractional raw
amounts.  Discarding fractions would systematically starve low-priority jobs
(their fair share may be < 1 token per period), so AdapTBF:

1. carries a per-job remainder ``ρ_x`` across *all* distribution steps
   (Eq. 21–22 define one series per job spanning the sub-steps);
2. floors ``raw + ρ`` at each step (Eq. 23) and keeps the new fraction
   (Eq. 24 — implemented in the conserving form
   ``ρ' = raw + ρ − floor(raw + ρ)``; the printed equation drops the carried
   ``ρ``, which would leak tokens — see DESIGN.md deviation 3);
3. applies a **largest-remainder** correction so the step's integer total
   exactly matches the budget: the job with the largest remainder is first
   to gain a leftover token or give back an excess one, adjusting its
   remainder in the opposite direction so per-job conservation
   ``raw + ρ = granted + ρ'`` always holds.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, sub
from typing import Dict, List, Mapping, Sequence

from repro.numeric import fold_sum

__all__ = ["RemainderStore"]

_EPS = 1e-9


class RemainderStore:
    """Per-job remainder state shared by all distribution steps."""

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
        """Turn fractional ``raw`` grants into integers summing to ``total``.

        Parameters
        ----------
        raw:
            ``{job → fractional grant}``; the values should sum to ``total``
            up to floating-point error (each step's raw shares do by
            construction).
        total:
            The integer token budget this step must hand out exactly.

        Returns
        -------
        ``{job → integer grant}`` with ``sum == total``; the internal
        remainders absorb the difference so that for every job
        ``raw + ρ_before == granted + ρ_after``.
        """
        jobs = sorted(raw)  # deterministic iteration
        return dict(
            zip(jobs, self.integerize_aligned(jobs, [raw[job] for job in jobs], total))
        )

    def integerize_aligned(
        self, jobs: Sequence[str], raw: Sequence[float], total: int
    ) -> List[int]:
        """:meth:`integerize` over index-aligned lists.

        ``jobs`` must be sorted (ties between equal remainders go to the
        earlier job) and ``raw[i]`` is the fractional grant of ``jobs[i]``;
        returns the integer grants in the same order.
        """
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        if not raw:
            if total != 0:
                raise ValueError(f"cannot distribute {total} tokens to no jobs")
            return []
        raw_sum = fold_sum(raw)
        if abs(raw_sum - total) > 1e-6 * (total if total > 1.0 else 1.0):
            raise ValueError(
                f"raw grants sum to {raw_sum!r}, expected total {total}"
            )

        rho = self._rho
        # raw + ρ, floored with an fp guard, and the fractions left over.
        values = list(map(add, raw, map(rho.get, jobs, repeat(0.0))))
        granted = list(map(int, map(add, values, repeat(_EPS))))
        # A deeply negative remainder could push `value` below 0; a grant can
        # never be negative, so clamp and carry the debt.
        if min(granted) < 0:
            granted = [max(0, floored) for floored in granted]
        remainders = list(map(sub, values, granted))

        # Largest-remainder correction (paper: adjust the job with the
        # largest remainder first, ±1 at a time, until the budget matches).
        # Implemented as sorted passes — one sort serves up to len(raw)
        # single-token adjustments, keeping a round O(n log n) overall
        # instead of O(n² log n) with a fresh argmax per token.  A reversed
        # sort is stable, so equal remainders keep job order.
        indices = range(len(jobs))
        by_remainder = remainders.__getitem__
        diff = total - sum(granted)  # repro: allow[no-float-sum] reason=integer floored grants
        while diff > 0:  # leftover: grant extra tokens, largest ρ first
            for i in sorted(indices, key=by_remainder, reverse=True):
                if diff == 0:
                    break
                granted[i] += 1
                remainders[i] -= 1.0
                diff -= 1
        while diff < 0:  # excess: withdraw tokens, largest ρ first
            order = [
                i
                for i in sorted(indices, key=by_remainder, reverse=True)
                if granted[i] > 0
            ]
            if not order:  # pragma: no cover - budget can't be negative
                raise RuntimeError("excess correction with no withdrawable job")
            for i in order:
                if diff == 0:
                    break
                if granted[i] > 0:
                    granted[i] -= 1
                    remainders[i] += 1.0
                    diff += 1
        rho.update(zip(jobs, remainders))
        return granted

