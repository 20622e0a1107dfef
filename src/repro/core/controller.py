"""System Stats Controller (paper §III-B and Fig. 2).

Drives the observation loop on one OST: every ``interval_s`` it

1. reads the job-stats tracker's demand signal (step 1 in Fig. 2) to learn
   the active jobs and their demands,
2. invokes the token allocation algorithm (steps 2–4),
3. hands the result to the Rule Management Daemon (steps 5–7),
4. clears the tracker (step 9) so the next period starts fresh.

An optional ``overhead_s`` models the measured framework overhead (the paper
reports ~25 ms per round end to end); rule changes are then applied that much
later, which is exactly how the real prototype behaves since it talks to
Lustre through procfs from userspace.
"""

from __future__ import annotations

import math
from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    MutableSequence,
    Optional,
    Union,
)

from repro.core.rule_daemon import RuleManagementDaemon
from repro.core.types import (
    AllocationGrants,
    AllocationInput,
    AllocationResult,
    AllocationRound,
)
from repro.lustre.jobstats import JobStatsTracker
from repro.numeric import is_count

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.allocation import TokenAllocationAlgorithm
    from repro.sim.engine import Environment

__all__ = ["SystemStatsController"]


class SystemStatsController:
    """Periodic allocation loop for one OST.

    Parameters
    ----------
    env:
        Simulation environment.
    jobstats:
        The OST's job-stats tracker (demand source).
    algorithm:
        The token allocation algorithm instance.
    daemon:
        Rule management daemon applying results.
    nodes:
        ``{job_id → compute nodes}`` for every job that may appear; this is
        scheduler-provided knowledge (Lustre JobID → SLURM allocation).
        Each count must be an ``int`` >= 1, as for :meth:`register_job`.
    max_token_rate:
        ``T_i`` tokens/second for this OST.
    interval_s:
        Observation period ``Δt`` (paper default 100 ms).
    overhead_s:
        Simulated per-round framework overhead before rules apply.
    keep_history:
        Round-history retention: per round, the time, the demands, the
        grants (:class:`~repro.core.types.AllocationGrants`, no per-job
        trace) and the ledger after the round, shared with the previous
        round while it is unchanged.  Fig. 7 is plotted straight from this.
        ``True`` — the default — keeps *every* round, which is right for the
        paper's bounded experiment windows but grows without bound on long
        runs (~10 rounds/s at the 100 ms interval).  Pass an ``int`` to cap
        retention to the most recent N rounds (a ``deque(maxlen=N)``), or
        ``False`` to keep none; ``on_round`` callbacks fire either way, and
        with neither no round is built at all.
    """

    def __init__(
        self,
        env: "Environment",
        jobstats: JobStatsTracker,
        algorithm: "TokenAllocationAlgorithm",
        daemon: RuleManagementDaemon,
        nodes: Mapping[str, int],
        max_token_rate: float,
        interval_s: float = 0.1,
        overhead_s: float = 0.0,
        keep_history: Union[bool, int] = True,
    ) -> None:
        if not (interval_s > 0 and math.isfinite(interval_s)):
            raise ValueError(
                f"interval must be a finite positive number, got {interval_s}"
            )
        if overhead_s < 0:
            raise ValueError(f"overhead must be >= 0, got {overhead_s}")
        if overhead_s >= interval_s:
            raise ValueError(
                "overhead must be smaller than the observation interval "
                f"(got {overhead_s} >= {interval_s}); see paper §IV-H"
            )
        self.env = env
        self.jobstats = jobstats
        self.algorithm = algorithm
        self.daemon = daemon
        self.nodes: Dict[str, int] = {}
        for job_id, count in nodes.items():
            self.register_job(job_id, count)
        self.max_token_rate = float(max_token_rate)
        self.interval_s = float(interval_s)
        self.overhead_s = float(overhead_s)
        self.keep_history = keep_history
        self.history: MutableSequence[AllocationRound]
        if keep_history is True or keep_history is False:
            self.history = []
        else:
            if keep_history <= 0:
                raise ValueError(
                    f"keep_history cap must be positive, got {keep_history}"
                )
            self.history = deque(maxlen=keep_history)
        self._on_round: List[Callable[[AllocationRound], None]] = []
        # The ledger snapshot of the last built round and the ledger
        # version it was taken at, reused while the version is unchanged.
        self._ledger: Optional[Dict[str, int]] = None
        self._ledger_version = -1
        self._stopped = False
        self.process = env.process(self._loop(), name="adaptbf.controller")

    def on_round(self, callback: Callable[[AllocationRound], None]) -> None:
        """Register a callback invoked after every allocation round."""
        self._on_round.append(callback)

    def register_job(self, job_id: str, nodes: int) -> None:
        """Teach the controller about a job that arrives mid-run.

        ``nodes`` must be an ``int`` >= 1 (a ``bool`` is not a count): the
        allocator sums node counts as integers.
        """
        if not is_count(nodes):
            raise ValueError(
                f"job {job_id!r}: nodes must be an int >= 1, got {nodes!r}"
            )
        self.nodes[job_id] = nodes

    def current_demands(self) -> Dict[str, int]:
        """This period's demand signal, read from the tracker so far.

        Read-only: the tracker is *not* cleared, so the running loop's next
        round sees the same period it would have anyway.  This is the
        observation half of the round, exposed for the mechanism protocol's
        ``observe`` hook and for tests.
        """
        return self._demands()

    def stop(self) -> None:
        """Halt the observation loop; it exits at its next wake-up."""
        self._stopped = True

    # -- the loop ----------------------------------------------------------------
    def _loop(self):
        env = self.env
        while True:
            yield env.timeout(self.interval_s)
            if self._stopped:
                return
            demands = self._demands()
            # Jobs the scheduler doesn't know get no rule: they stay on the
            # fallback queue (the paper's no-starvation guarantee).
            nodes = self.nodes
            if nodes.keys() >= demands.keys():
                known = demands
            else:
                known = {j: d for j, d in demands.items() if j in nodes}
            result: Optional[AllocationResult] = None
            if known:
                inputs = AllocationInput(
                    interval_s=self.interval_s,
                    max_token_rate=self.max_token_rate,
                    demands=known,
                    nodes=nodes,
                )
                result = self.algorithm.allocate(inputs)
                if self.overhead_s:
                    yield env.timeout(self.overhead_s)
                self.daemon.apply(result, self.interval_s)
            else:
                # No known job is active: stop every managed rule so queued
                # leftovers drain unthrottled.
                self.daemon.reconcile({}, {})
            # Step 9: clear stats for the next observation period.
            self.jobstats.clear()
            if result is not None and (self.keep_history or self._on_round):
                round_ = AllocationRound(
                    time=env.now,
                    demands=demands,
                    result=AllocationGrants(
                        result.allocations,
                        result.total_tokens,
                        result.surplus_pool,
                        result.reclaimed_pool,
                    ),
                    records=self._ledger_snapshot(),
                )
                if self.keep_history:
                    self.history.append(round_)
                for callback in self._on_round:
                    callback(round_)

    def _ledger_snapshot(self) -> Dict[str, int]:
        """The ledger after this round, as a read-only snapshot.

        Consecutive rounds share one snapshot while the ledger is unchanged.
        """
        records = self.algorithm.records
        if self._ledger is None or records.version != self._ledger_version:
            self._ledger = records.snapshot()
            self._ledger_version = records.version
        return self._ledger

    def _demands(self) -> Dict[str, int]:
        """Per-job demand ``d_x``: RPCs that wanted service this period.

        The tracker's ``served this period + outstanding now`` signal
        (:meth:`~repro.lustre.jobstats.JobStatsTracker.demands`, DESIGN.md
        deviation 7): a job whose backlog is gated by tokens stays *active*
        even when its client windows are full and no new RPCs arrive.
        """
        return self.jobstats.demands()
