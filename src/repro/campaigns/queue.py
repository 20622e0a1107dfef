"""The campaign work queue: lease pending cells, execute, commit, reclaim.

This is the scheduling half of the persistence layer
(:mod:`repro.campaigns.store` is the durability half).  A
:class:`WorkQueue` binds one frozen campaign to one
:class:`~repro.campaigns.store.ResultStore` and drains the pending cells:

1. **lease** — before a cell is handed to a worker, the queue acquires a
   TTL lease on it in the store.  A cell whose lease has expired (its
   worker died without committing) is *reclaimed*: acquiring over the dead
   lease succeeds and the cell re-enters the queue;
2. **execute** — the cell runs, serially in-process (``jobs == 1``) or in
   a :class:`~concurrent.futures.ProcessPoolExecutor` fan-out.  Workers
   receive pre-resolved :class:`~repro.scenarios.spec.ScenarioSpec` objects
   (registry lookups stay in the parent) and return only the reduced
   :class:`CellOutcome`;
3. **commit** — the outcome is durably committed the moment it completes
   (incremental: a crash one cell later loses one cell, not the campaign),
   which also releases the lease.  Committed cells are never re-executed —
   the store's keep-first idempotency plus per-cell determinism make
   overlapping executions harmless *and* byte-identical.

Failure semantics: a cell that raises releases its lease (an immediate
retry or resume re-runs it) and is reported in the drain's ``failures``;
a worker process that dies (SIGKILL, OOM) breaks the pool — the queue
releases the leases of every cell the pool will no longer finish and
reports them, leaving the committed prefix intact for ``campaign resume``.
A campaign whose coordinating process is itself killed leaves leases
behind.  Lease worker ids are ``host:pid``, so a resume on the *same*
host probes the pid and reclaims leases of provably dead coordinators
immediately; leases from other hosts (unprobeable) are reclaimed once
they expire after :data:`DEFAULT_LEASE_TTL` (tunable per run).
"""

from __future__ import annotations

import os
import socket
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaigns.aggregate import CellRow, run_cell
from repro.campaigns.spec import CampaignCell, CampaignSpec
from repro.campaigns.store import CellRecord, ResultStore, StoreError
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "DEFAULT_LEASE_TTL",
    "CellOutcome",
    "CellFailure",
    "DrainResult",
    "QueueStatus",
    "StoreNotEmptyError",
    "WorkQueue",
    "queue_status",
]

#: Default seconds a cell lease stays valid without a commit.  Generous —
#: leases exist to survive *death*, not slowness; a live worker only looks
#: slow, and re-running its cell would be wasted (if harmless) work.
DEFAULT_LEASE_TTL = 900.0

#: Signature of the optional progress hook: (outcome, total_cells).
ProgressCallback = Callable[["CellOutcome", int], None]


@dataclass(frozen=True)
class CellOutcome:
    """One executed cell: its identity, reduced row and wall time."""

    index: int
    params: Dict[str, Any]
    seed: int
    row: CellRow
    wall_s: float

    def to_record(self) -> CellRecord:
        return CellRecord(
            index=self.index,
            seed=self.seed,
            params=dict(self.params),
            row=self.row.as_dict(),
            wall_s=self.wall_s,
        )

    @classmethod
    def from_record(cls, record: CellRecord) -> "CellOutcome":
        return cls(
            index=record.index,
            params=dict(record.params),
            seed=record.seed,
            row=CellRow.from_dict(record.row),
            wall_s=record.wall_s,
        )


@dataclass(frozen=True)
class CellFailure:
    """One cell the queue could not commit this drain, and why."""

    index: int
    params: Dict[str, Any]
    error: str


@dataclass
class DrainResult:
    """What one :meth:`WorkQueue.drain` pass did."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    failures: List[CellFailure] = field(default_factory=list)
    #: Cells whose expired leases (dead workers) this drain acquired over.
    reclaimed: int = 0


class StoreNotEmptyError(RuntimeError):
    """A non-resume run hit a store that already holds committed cells.

    Starting “fresh” on a half-finished store is almost always an accident
    (the committed rows would silently be skipped); demanding an explicit
    ``resume`` keeps the two intents distinguishable.
    """

    def __init__(self, location: str, committed: int, total: int) -> None:
        self.location = location
        self.committed = committed
        self.total = total
        super().__init__(
            f"campaign store at {location} already holds {committed} of "
            f"{total} committed cell(s); resume it (CLI: `campaign resume "
            f"{location}` or `campaign run ... --store {location} "
            "--resume`) or point --store at a fresh location"
        )


def _execute_cell(spec: ScenarioSpec, cell: CampaignCell) -> CellOutcome:
    """Run one pre-resolved cell; the worker-side entry point."""
    start = time.perf_counter()  # repro: allow[no-wallclock] reason=wall time recorded into the cell result only; never enters simulation state
    row = run_cell(spec)
    return CellOutcome(
        index=cell.index,
        params=dict(cell.params),
        seed=cell.seed,
        row=row,
        wall_s=time.perf_counter() - start,  # repro: allow[no-wallclock] reason=reporting-only wall time per cell
    )


def _worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def _lease_is_dead(lease, now: float) -> bool:
    """Expired, or held by a provably dead process on this host.

    The TTL is the only signal for leases from other hosts; for a lease
    taken on *this* host the pid in its ``host:pid`` worker id can be
    probed, so a SIGKILLed coordinator's cells are reclaimed on the very
    next resume instead of after the TTL.  Unprobeable (foreign format,
    other host, permission-denied) leases are conservatively treated as
    alive.
    """
    if lease.expired(now):
        return True
    host, _, pid = lease.worker.rpartition(":")
    if host != socket.gethostname() or not pid.isdigit():
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except (PermissionError, OSError):
        return False
    return False


class WorkQueue:
    """Drains one campaign's pending cells through a result store."""

    def __init__(
        self,
        campaign: CampaignSpec,
        store: ResultStore,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.time,  # repro: allow[no-wallclock] reason=lease-TTL clock for crash detection; injectable for tests, outside simulated time
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        self.campaign = campaign
        self.store = store
        self.lease_ttl = lease_ttl
        self.clock = clock
        self.worker = _worker_id()
        # Binds the store to this campaign — raises SpecHashMismatchError
        # if it already belongs to a different sweep.
        store.begin(campaign.spec_hash(), campaign.to_json_dict())

    # -- durable state -----------------------------------------------------
    def committed_outcomes(self) -> List[CellOutcome]:
        """Previously committed cells, rebuilt bit-identically, in order."""
        records = self.store.load()
        return [
            CellOutcome.from_record(records[index])
            for index in sorted(records)
        ]

    def pending_cells(self) -> Tuple[List[CampaignCell], int]:
        """Cells not committed and not under a live lease.

        Returns ``(cells, reclaimable)`` where ``reclaimable`` counts the
        pending cells whose lease marks a dead worker (expired TTL, or a
        dead pid on this host) — included in the list, since acquiring
        over the stale lease is the reclamation.
        """
        committed = self.store.load()
        leases = self.store.leases()
        now = self.clock()
        pending: List[CampaignCell] = []
        reclaimable = 0
        for cell in self.campaign.cells():
            if cell.index in committed:
                continue
            lease = leases.get(cell.index)
            if lease is not None:
                if not _lease_is_dead(lease, now):
                    continue
                reclaimable += 1
            pending.append(cell)
        return pending, reclaimable

    # -- draining ----------------------------------------------------------
    def drain(
        self,
        jobs: int = 1,
        progress: Optional[ProgressCallback] = None,
        max_cells: Optional[int] = None,
    ) -> DrainResult:
        """Lease, execute and commit every pending cell (up to ``max_cells``).

        Completion order feeds ``progress``; the returned outcomes are in
        cell-index order.  Failed cells release their leases and are
        reported, never raised mid-drain — one bad cell doesn't strand the
        rest of the sweep uncommitted.
        """
        if jobs <= 0:
            raise ValueError(f"jobs must be positive, got {jobs}")
        if max_cells is not None and max_cells < 0:
            raise ValueError(f"max_cells must be >= 0, got {max_cells}")
        pending, _ = self.pending_cells()
        if max_cells is not None:
            pending = pending[:max_cells]
        total = self.campaign.n_cells
        # Resolve in the parent: registry lookups and parameter validation
        # fail fast (before any lease or pool), and workers need no
        # registry at all.
        work = [(self.campaign.resolve(cell), cell) for cell in pending]
        result = DrainResult()
        if not work:
            return result
        if jobs == 1 or len(work) == 1:
            self._drain_serial(work, total, progress, result)
        else:
            self._drain_pool(work, jobs, total, progress, result)
        result.outcomes.sort(key=lambda outcome: outcome.index)
        return result

    def _lease(self, cell: CampaignCell, result: DrainResult) -> bool:
        now = self.clock()
        lease = self.store.leases().get(cell.index)
        stale = lease is not None and _lease_is_dead(lease, now)
        if stale and not lease.expired(now):
            # Dead same-host coordinator: its lease would otherwise block
            # until the TTL runs out — drop it so the acquire succeeds.
            self.store.release(cell.index)
        acquired = self.store.acquire(
            cell.index, self.worker, now, self.lease_ttl
        )
        if acquired and stale:
            result.reclaimed += 1
        return acquired

    def _commit(
        self,
        outcome: CellOutcome,
        total: int,
        progress: Optional[ProgressCallback],
        result: DrainResult,
    ) -> None:
        self.store.commit(outcome.to_record())
        result.outcomes.append(outcome)
        if progress is not None:
            progress(outcome, total)

    def _fail(
        self, cell: CampaignCell, error: str, result: DrainResult
    ) -> None:
        self.store.release(cell.index)
        result.failures.append(
            CellFailure(
                index=cell.index, params=dict(cell.params), error=error
            )
        )

    def _drain_serial(self, work, total, progress, result) -> None:
        for spec, cell in work:
            if not self._lease(cell, result):
                continue
            try:
                outcome = _execute_cell(spec, cell)
            except Exception as exc:  # noqa: BLE001 — reported, not raised
                self._fail(cell, f"{type(exc).__name__}: {exc}", result)
                continue
            self._commit(outcome, total, progress, result)

    def _drain_pool(self, work, jobs, total, progress, result) -> None:
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            futures = {}
            for spec, cell in work:
                if not self._lease(cell, result):
                    continue
                futures[pool.submit(_execute_cell, spec, cell)] = cell
            try:
                for future in as_completed(futures):
                    cell = futures[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        raise  # a worker died; handled for all cells below
                    except Exception as exc:  # noqa: BLE001
                        self._fail(
                            cell, f"{type(exc).__name__}: {exc}", result
                        )
                        continue
                    self._commit(outcome, total, progress, result)
            except BrokenProcessPool:
                # A worker process died without returning (SIGKILL/OOM):
                # the pool is unusable and every uncommitted future is
                # lost.  Release their leases so a resume retries them
                # immediately instead of waiting out the TTL.
                done = {outcome.index for outcome in result.outcomes}
                failed = {failure.index for failure in result.failures}
                for cell in futures.values():
                    if cell.index not in done and cell.index not in failed:
                        self._fail(
                            cell,
                            "worker process died before returning "
                            "(BrokenProcessPool)",
                            result,
                        )


def queue_status(
    store: ResultStore, now: Optional[float] = None
) -> "QueueStatus":
    """Inspect a store's durable state without touching it.

    Works on a store another process is actively draining (SQLite WAL, or
    a fresh read of the JSONL logs).
    """
    identity = store.campaign()
    if identity is None:
        raise StoreError(
            f"store at {store.location} holds no campaign yet; run "
            "`campaign run <name> --store ...` first"
        )
    spec_hash, campaign_json = identity
    spec = CampaignSpec.from_json_dict(campaign_json)
    committed = store.load()
    leases = store.leases()
    now = time.time() if now is None else now  # repro: allow[no-wallclock] reason=lease-expiry check against worker heartbeats; injectable for tests
    active = sum(  # repro: allow[no-float-sum] reason=counts leases
        1
        for lease in leases.values()
        if not _lease_is_dead(lease, now) and lease.index not in committed
    )
    expired = sum(  # repro: allow[no-float-sum] reason=counts leases
        1
        for lease in leases.values()
        if _lease_is_dead(lease, now) and lease.index not in committed
    )
    total = spec.n_cells
    return QueueStatus(
        spec_hash=spec_hash,
        campaign=spec,
        store_kind=store.kind,
        location=store.location,
        total=total,
        committed=len(committed),
        leased=active,
        reclaimable=expired,
        pending=total - len(committed) - active,
    )


@dataclass(frozen=True)
class QueueStatus:
    """Durable progress of one campaign store, for ``campaign status``."""

    spec_hash: str
    campaign: CampaignSpec
    store_kind: str
    location: str
    total: int
    committed: int
    #: Cells under a live lease (a run is working on them right now).
    leased: int
    #: Cells whose lease marks a dead worker (expired TTL, or a dead pid
    #: on this host) — orphaned, reclaimed by the next drain.
    reclaimable: int
    #: Cells no run has claimed (reclaimable ones count as pending too).
    pending: int

    def describe(self) -> str:
        campaign = self.campaign
        done = self.committed == self.total
        state = (
            "complete"
            if done
            else f"{self.committed}/{self.total} committed"
        )
        lines = [
            f"store:     {self.store_kind} at {self.location}",
            f"campaign:  {campaign.name!r} over scenario "
            f"{campaign.scenario!r}",
            f"spec hash: {self.spec_hash}",
            f"cells:     {self.total} total — {state}; skipped on resume: "
            f"{self.committed}",
            f"leases:    {self.leased} live, {self.reclaimable} expired "
            "(reclaimed by next resume)",
            f"pending:   {self.pending} to execute",
        ]
        if not done:
            lines.append(
                f"resume:    python -m repro.experiments campaign resume "
                f"{self.location}"
            )
        return "\n".join(lines)
