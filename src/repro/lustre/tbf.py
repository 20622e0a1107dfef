"""Classful Token Bucket Filter scheduler (Lustre NRS-TBF).

Implements the mechanism of paper §II-A / Fig. 1:

* **Rules** map a JobID to a token rate; they form an ordered set that can be
  started, stopped and re-rated at runtime (`nrs_tbf_rule` in real Lustre).
  Rule matching is a precomputed exact-match dict (JobID → queue), so
  classification at enqueue time is a single O(1) lookup — no rule-list scan.
* **Queues** hold the RPCs of one rule, drained FCFS; each queue owns a
  :class:`~repro.lustre.bucket.TokenBucket` and is only eligible for dequeue
  when a token is available.  Token accounting is *lazy O(1) accrual*: the
  bucket materialises its level from ``rate × elapsed`` only when observed
  at dequeue time — there is no per-tick replenishment loop anywhere.
* A **deadline heap** orders queues by the time their next token matures, so
  the scheduler always serves the queue with the nearest deadline; equal
  deadlines are broken by rule *rank* (the paper's rule hierarchy — higher
  priority jobs first).  Heap entries are immutable bare tuples invalidated
  lazily through per-queue version counters (rate changes and rule stops
  bump the version; stale entries are skipped when they surface) or
  re-filed at the bucket's actual ready time when their deadline has lapsed
  — the heap itself is never rebuilt or rescanned.
* RPCs that match no rule land in the **fallback queue**, served
  opportunistically (no token limit) whenever no token-backed queue is ready
  — exactly the starvation-avoidance property §III-D relies on when the Rule
  Management Daemon stops rules for inactive jobs.

Stopping a rule re-files its queued RPCs into the fallback queue (preserving
FIFO order), so no request is ever lost to rule churn.

``poll`` is the OSS thread pool's hot path: one heap walk that either hands
out a serviceable RPC or reports the next wake deadline.  Occupancy counters
(total pending, per-job fallback depth) are maintained incrementally so the
introspection surface the controllers sample stays O(1) per call.
"""

from __future__ import annotations

# repro: allow-file[calendar-seam-only] reason=heapq here orders TBF rule deadlines (Eq. 1 virtual finish times), not simulation events; the event calendar stays in repro.sim.engine
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.lustre.bucket import TokenBucket
from repro.lustre.rpc import Rpc

__all__ = ["TbfRule", "TbfScheduler", "DEFAULT_BUCKET_DEPTH"]

#: Lustre's default TBF bucket depth (paper §II-A: "e.g., 3 tokens by default").
DEFAULT_BUCKET_DEPTH = 3.0


@dataclass(slots=True)
class TbfRule:
    """One TBF rule: JobID → token rate.

    Parameters
    ----------
    name:
        Rule name, unique within a scheduler (Lustre rule identifier).
    job_id:
        Exact JobID this rule classifies.  AdapTBF uses JobID classification
        (§III-D), so exact match is all the reproduction needs; a fallback
        queue covers everything else.
    rate:
        Token rate in tokens/second (1 token = 1 RPC).
    depth:
        Bucket depth (burst allowance).
    rank:
        Hierarchy position; *lower rank wins ties* when two queues' deadlines
        coincide.  The rule daemon sets rank from job priority.
    """

    name: str
    job_id: str
    rate: float
    depth: float = DEFAULT_BUCKET_DEPTH
    rank: int = 0

    def __post_init__(self) -> None:
        # Negated so that NaN, which fails every comparison, is rejected too.
        if not self.rate >= 0:
            raise ValueError(f"rule rate must be >= 0, got {self.rate}")
        if not self.depth > 0:
            raise ValueError(f"rule depth must be > 0, got {self.depth}")


@dataclass(slots=True)
class _TbfQueue:
    """Internal per-rule queue state."""

    rule: TbfRule
    bucket: TokenBucket
    items: Deque[Rpc] = field(default_factory=deque)
    #: Version counter; heap entries carry the version they were pushed with
    #: so stale entries (rate changed, queue drained) can be skipped lazily.
    version: int = 0


class TbfScheduler:
    """The classful TBF request scheduler for one OST.

    All methods take explicit ``now`` timestamps instead of holding an
    environment reference, which keeps the scheduler a pure data structure —
    trivially unit-testable and reusable outside the simulator.
    """

    __slots__ = (
        "_rules",
        "_by_job",
        "_fallback",
        "_heap",
        "_seq",
        "_served_with_token",
        "_served_fallback",
        "_pending_total",
        "_fallback_counts",
        "rules_version",
    )

    def __init__(self) -> None:
        self._rules: Dict[str, TbfRule] = {}  # by rule name
        self._by_job: Dict[str, _TbfQueue] = {}  # by job id (rule-match lookup)
        self._fallback: Deque[Rpc] = deque()
        # Heap of (deadline, rank, seq, job_id, version).
        self._heap: List[Tuple[float, int, int, str, int]] = []
        self._seq = itertools.count()
        self._served_with_token = 0
        self._served_fallback = 0
        # Incrementally-maintained occupancy, so `pending` and
        # `pending_for_job` are O(1) instead of rescanning queues.
        self._pending_total = 0
        self._fallback_counts: Dict[str, int] = {}
        #: Bumped by every rule start and stop, so a rule writer keeping its
        #: own table of live rules can tell when the rule set changed under
        #: it.
        self.rules_version = 0

    # -- rule management (the Rule Management Daemon's surface) -------------
    def start_rule(self, now: float, rule: TbfRule) -> None:
        """Install ``rule``; its queue starts with a full bucket.

        Any RPCs of this job currently waiting in the fallback queue are
        *not* migrated — like Lustre, classification happens at enqueue time.
        """
        if rule.name in self._rules:
            raise ValueError(f"rule {rule.name!r} already exists")
        if rule.job_id in self._by_job:
            raise ValueError(f"job {rule.job_id!r} already has a rule")
        self._rules[rule.name] = rule
        bucket = TokenBucket(rule.rate, depth=rule.depth, now=now)
        self._by_job[rule.job_id] = _TbfQueue(rule=rule, bucket=bucket)
        self.rules_version += 1

    def stop_rule(self, now: float, name: str) -> int:
        """Remove rule ``name``; queued RPCs drain through fallback.

        Returns the number of RPCs re-filed to the fallback queue.
        """
        rule = self._rules.pop(name, None)
        if rule is None:
            raise KeyError(f"no rule named {name!r}")
        queue = self._by_job.pop(rule.job_id)
        queue.version += 1  # invalidate heap entries
        self.rules_version += 1
        moved = len(queue.items)
        if moved:
            self._fallback.extend(queue.items)
            counts = self._fallback_counts
            counts[rule.job_id] = counts.get(rule.job_id, 0) + moved
            queue.items.clear()
        return moved

    def change_rate(
        self, now: float, name: str, rate: float, rank: Optional[int] = None
    ) -> None:
        """Re-rate (and optionally re-rank) an existing rule in place.

        Accrued tokens survive the change; only the slope is updated, which
        is how Lustre applies ``rate=`` changes to live rules.  Re-pushing
        bumps the queue's version, so any heap entry computed under the old
        rate is invalidated lazily.
        """
        rule = self._rules.get(name)
        if rule is None:
            raise KeyError(f"no rule named {name!r}")
        queue = self._by_job[rule.job_id]
        # Settles the bucket and yields its next-token deadline in one call;
        # it rejects a bad rate or time before anything is changed.
        deadline = queue.bucket.set_rate(now, rate)
        rule.rate = float(rate)
        if rank is not None:
            rule.rank = rank
        if queue.items:
            self._push(now, rule.job_id, queue, deadline)

    def rule_names(self) -> List[str]:
        """Names of currently installed rules."""
        return sorted(self._rules)

    def get_rule(self, name: str) -> TbfRule:
        return self._rules[name]

    def has_rule_for_job(self, job_id: str) -> bool:
        return job_id in self._by_job

    # -- request path -----------------------------------------------------------
    def enqueue(self, now: float, rpc: Rpc) -> None:
        """Classify and queue an arriving RPC (one dict lookup)."""
        self._pending_total += 1
        queue = self._by_job.get(rpc.job_id)
        if queue is None:
            self._fallback.append(rpc)
            counts = self._fallback_counts
            counts[rpc.job_id] = counts.get(rpc.job_id, 0) + 1
            return
        queue.items.append(rpc)
        if len(queue.items) == 1:
            self._push(now, rpc.job_id, queue)

    def poll(self, now: float) -> Tuple[Optional[Rpc], float]:
        """One heap walk: the next serviceable RPC, or the next wake time.

        Returns ``(rpc, now)`` when a queue's token has matured or the
        fallback queue has work; ``(None, wake)`` otherwise, where ``wake``
        is the earliest future time a dequeue could succeed (``inf`` if
        never).  This fuses :meth:`dequeue` and :meth:`next_wake` so an idle
        OSS thread pays for one walk per cycle instead of two; the service
        decision is identical to ``dequeue``'s.
        """
        top = self._live_top(now)
        if top is not None:
            job_id, queue, ready = top
            if ready <= now:
                heapq.heappop(self._heap)
                consumed = queue.bucket.try_consume(now)
                assert consumed, "deadline matured but token missing"
                rpc = queue.items.popleft()
                if queue.items:
                    self._push(now, job_id, queue)
                self._served_with_token += 1
                self._pending_total -= 1
                return rpc, now
            # Nearest token deadline is in the future.
            if not self._fallback:
                return None, max(ready, now)

        if self._fallback:
            self._served_fallback += 1
            self._pending_total -= 1
            rpc = self._fallback.popleft()
            counts = self._fallback_counts
            left = counts[rpc.job_id] - 1
            if left:
                counts[rpc.job_id] = left
            else:
                del counts[rpc.job_id]
            rpc.via_fallback = True
            return rpc, now

        return None, math.inf

    def dequeue(self, now: float) -> Optional[Rpc]:
        """Return the next serviceable RPC at ``now``, or None.

        Token-backed queues with matured deadlines win (earliest deadline,
        then rank); otherwise the fallback queue is served opportunistically;
        otherwise nothing is ready.
        """
        rpc, _wake = self.poll(now)
        return rpc

    def next_wake(self, now: float) -> float:
        """Earliest future time a dequeue could succeed; ``inf`` if never.

        Only meaningful after :meth:`dequeue` returned None (i.e. no queue is
        currently ready and the fallback queue is empty).
        """
        top = self._live_top(now)
        if top is None:
            return math.inf
        return max(top[2], now)

    def _live_top(self, now: float) -> Optional[Tuple[str, _TbfQueue, float]]:
        """Resolve the deadline heap's top to a live, trustworthy entry.

        Pops stale entries (version mismatch, empty or vanished queue) and
        re-files entries whose deadline has lapsed — the queue matured in
        the past, or the bucket moved under the entry — at the bucket's
        actual ready time.  Re-filing matured queues at ``now`` is what lets
        *rank* break the tie between several queues whose tokens are all
        available (the paper's rule hierarchy).

        Returns ``(job_id, queue, ready)`` for the winning entry, or None
        when the heap is exhausted.  The entry itself is left on the heap.
        """
        heap = self._heap
        by_job = self._by_job
        while heap:
            deadline, _rank, _seq, job_id, version = heap[0]
            queue = by_job.get(job_id)
            if queue is None or version != queue.version or not queue.items:
                heapq.heappop(heap)  # stale entry
                continue
            ready = queue.bucket.ready_at(now)
            if ready > deadline + 1e-12:
                heapq.heappop(heap)
                self._push(now, job_id, queue, deadline=ready)
                continue
            return job_id, queue, ready
        return None

    # -- introspection ----------------------------------------------------------
    @property
    def pending(self) -> int:
        """Total RPCs currently queued (all rule queues + fallback); O(1)."""
        return self._pending_total

    def pending_for_job(self, job_id: str) -> int:
        """Queued RPCs of one job (rule queue + fallback); O(1)."""
        queue = self._by_job.get(job_id)
        in_rule = len(queue.items) if queue else 0
        return in_rule + self._fallback_counts.get(job_id, 0)

    @property
    def fallback_depth(self) -> int:
        return len(self._fallback)

    @property
    def served_with_token(self) -> int:
        return self._served_with_token

    @property
    def served_fallback(self) -> int:
        return self._served_fallback

    # -- internals -----------------------------------------------------------------
    def _push(
        self,
        now: float,
        job_id: str,
        queue: _TbfQueue,
        deadline: Optional[float] = None,
    ) -> None:
        queue.version += 1
        if deadline is None:
            deadline = queue.bucket.ready_at(now)
        if math.isinf(deadline):
            # Rate 0 with an empty bucket: the queue is blocked until a rate
            # change re-pushes it; keep it off the heap entirely.
            return
        heapq.heappush(
            self._heap,
            (deadline, queue.rule.rank, next(self._seq), job_id, queue.version),
        )
