"""The lending/borrowing ledger (``r_x`` in the paper).

A positive record means the job has *lent* tokens (its surplus was handed to
others); a negative record means it has *borrowed*.  The ledger is the memory
that makes AdapTBF fair over time: re-compensation (§III-C3) reclaims tokens
from borrowers exactly up to what they owe.

Two structural properties are maintained and property-tested:

* **zero-sum** — every exchange moves tokens between jobs, so the sum of all
  records stays where it started (0 for a fresh ledger);
* **persistence** — records of jobs that go idle are retained (the paper's
  memory-footprint note: AdapTBF stores only ``{job id → record}``), and the
  job resumes its position in the lending cycle when it becomes active again.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Tuple

__all__ = ["JobRecords"]


class JobRecords:
    """Mutable per-job token-exchange ledger.

    ``version`` is bumped by every write that changes the ledger (a new job,
    or a record that moved), so a reader keeping a :meth:`snapshot` can
    tell whether it is still current without comparing the two.
    """

    def __init__(self) -> None:
        self._records: Dict[str, int] = {}
        self.version = 0

    def get(self, job_id: str) -> int:
        """Current record of ``job_id`` (0 if never seen)."""
        return self._records.get(job_id, 0)

    def add(self, job_id: str, delta: int) -> int:
        """Apply ``delta`` (＋ lends, − borrows); returns the new record."""
        new = self._records.get(job_id, 0) + delta
        self.set(job_id, new)
        return new

    def set(self, job_id: str, value: int) -> None:
        self.set_many(((job_id, value),))

    def get_many(self, job_ids: Iterable[str]) -> List[int]:
        """Records of ``job_ids`` in the given order (0 if never seen)."""
        return list(map(self._records.get, job_ids, repeat(0)))

    def set_many(self, items: Iterable[Tuple[str, int]]) -> None:
        """Set each ``(job_id, record)`` pair, in order."""
        new = dict(items)
        # Every pair already in the ledger: nothing changes.
        if not new.items() <= self._records.items():
            self._records.update(new)
            self.version += 1

    def positive_jobs(self, among: Iterable[str]) -> List[str]:
        """Jobs from ``among`` with strictly positive records (lenders)."""
        return [j for j in among if self._records.get(j, 0) > 0]

    def negative_jobs(self, among: Iterable[str]) -> List[str]:
        """Jobs from ``among`` with strictly negative records (borrowers)."""
        return [j for j in among if self._records.get(j, 0) < 0]

    def snapshot(self) -> Dict[str, int]:
        """Copy of the full ledger (used for Fig. 7 time series)."""
        return dict(self._records)

    def total(self) -> int:
        """Sum of all records — zero for a ledger that started empty."""
        return sum(self._records.values())  # repro: allow[no-float-sum] reason=integer token records

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._records

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JobRecords({self._records!r})"
