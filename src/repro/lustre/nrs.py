"""Network Request Scheduler policies.

The NRS sits between RPC arrival at the OSS and service by I/O threads
(paper Fig. 1).  Two policies reproduce the paper's baselines and mechanism:

* :class:`FifoPolicy` — the **No BW** baseline (§IV-C): RPCs are served
  strictly first-come-first-serve with no rate control.
* :class:`TbfPolicy` — Lustre's classful Token Bucket Filter (§II-A); both
  the **Static BW** baseline and AdapTBF drive it, differing only in who
  sets the rule rates and when.

A policy faces the OSS's pool of I/O service slots through two calls:
``enqueue`` accepts an arriving RPC, and ``poll`` returns either a
serviceable RPC or the time to poll again.  In the push direction, a policy
calls its ``on_work`` hook whenever queued work may have become
serviceable — an arrival, a rule start, a stop that re-files RPCs to the
fallback queue, a batch of rate changes (one call after its last change) —
and the owning OSS decides whether any idle slot needs waking.

The TBF mechanism:

* **Rules** map a JobID to a token rate; they form an ordered set that can be
  started, stopped and re-rated at runtime (`nrs_tbf_rule` in real Lustre).
  Rule matching is a precomputed exact-match dict (JobID → queue), so
  classification at enqueue time is a single O(1) lookup — no rule-list scan.
* **Queues** hold the RPCs of one rule, drained FCFS; each queue owns a
  :class:`~repro.lustre.bucket.TokenBucket` and is only eligible for service
  when a token is available.  Token accounting is *lazy O(1) accrual*: the
  bucket materialises its level from ``rate × elapsed`` only when polled —
  there is no per-tick replenishment loop anywhere.
* A **deadline heap** orders queues by the time their next token matures, so
  the policy always serves the queue with the nearest deadline; equal
  deadlines are broken by rule *rank* (the paper's rule hierarchy — higher
  priority jobs first).  Heap entries are immutable bare tuples,
  invalidated lazily: a queue's version is the policy-wide ``seq`` of its
  latest push, and an entry is live only while its ``seq`` is the version
  of its job's current queue, so a re-push, or a new rule for the same job,
  retires every older entry.  Stale entries are skipped when they surface,
  entries whose deadline has lapsed are re-filed at the bucket's actual
  ready time, and the heap itself is never rebuilt or rescanned.
* RPCs that match no rule land in the **fallback queue**, served
  opportunistically (no token limit) whenever no token-backed queue is ready
  — exactly the starvation-avoidance property §III-D relies on when the Rule
  Management Daemon stops rules for inactive jobs.  Stopping a rule re-files
  its queued RPCs into the fallback queue (preserving FIFO order), so no
  request is ever lost to rule churn.

``poll`` is the OSS thread pool's hot path: one heap walk that either hands
out a serviceable RPC or reports the next wake deadline.
"""

from __future__ import annotations

# repro: allow-file[calendar-seam-only] reason=heapq here orders TBF rule deadlines (Eq. 1 virtual finish times), not simulation events; the event calendar stays in repro.sim.engine
import itertools
import math
from abc import ABC, abstractmethod
from collections import deque
from heapq import heappop, heappush, heapreplace
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.lustre.bucket import _EPS, _INF, TokenBucket, _bad_time
from repro.lustre.rpc import Rpc
from repro.lustre.tbf import TbfRule

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["NrsPolicy", "FifoPolicy", "TbfPolicy"]


def _no_listener() -> None:
    """Default ``on_work`` hook: no OSS serves this policy yet."""


class NrsPolicy(ABC):
    """Interface between the OSS service slots and a request ordering policy."""

    __slots__ = ("env", "on_work")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Called whenever queued work may have become serviceable; the
        #: owning :class:`~repro.lustre.oss.Oss` installs its wakeup here.
        self.on_work: Callable[[], None] = _no_listener

    @abstractmethod
    def enqueue(self, rpc: Rpc) -> None:
        """Accept an arriving RPC."""

    @abstractmethod
    def poll(self) -> Tuple[Optional[Rpc], float]:
        """The next serviceable RPC, or when to poll again.

        Returns ``(rpc, now)`` when an RPC is serviceable and
        ``(None, wake)`` otherwise, where ``wake`` is the earliest time a
        poll could serve (``inf``: not before the next ``on_work``).
        """


class FifoPolicy(NrsPolicy):
    """First-come-first-serve — the paper's *No BW* environment.

    RPCs are handed to I/O service slots in arrival order with no
    throttling: a single aggressive job can monopolise the OST, which is
    precisely the failure mode the paper's introduction motivates.
    """

    __slots__ = ("_queue",)

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        self._queue: Deque[Rpc] = deque()

    def enqueue(self, rpc: Rpc) -> None:
        rpc.arrived = self.env.now
        self._queue.append(rpc)
        self.on_work()

    def poll(self) -> Tuple[Optional[Rpc], float]:
        # FIFO is ready iff non-empty; emptiness only changes on arrival.
        queue = self._queue
        if queue:
            return queue.popleft(), self.env.now
        return None, math.inf


class _TbfQueue:
    """Internal per-rule queue state."""

    __slots__ = ("rule", "bucket", "items", "version")

    def __init__(self, rule: TbfRule, bucket: TokenBucket) -> None:
        self.rule = rule
        self.bucket = bucket
        self.items: Deque[Rpc] = deque()
        #: The ``seq`` of the queue's latest push (-1 before any): a heap
        #: entry is live only while its ``seq`` matches, so stale entries
        #: (rate changed, queue drained, or a stopped rule's queue for the
        #: same job) are skipped lazily.
        self.version = -1


class TbfPolicy(NrsPolicy):
    """The classful TBF policy of one OST, with runtime rule management.

    Rule management mirrors the Lustre ``nrs_tbf_rule`` interface the
    AdapTBF Rule Management Daemon drives (§III-D).  The policy reads only
    ``env.now`` from its environment.
    """

    __slots__ = ("_rules", "_by_job", "_fallback", "_heap", "_seq", "rules_version")

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        self._rules: Dict[str, TbfRule] = {}  # by rule name
        self._by_job: Dict[str, _TbfQueue] = {}  # by job id (rule-match lookup)
        self._fallback: Deque[Rpc] = deque()
        # Heap of (deadline, rank, seq, job_id).
        self._heap: List[Tuple[float, int, int, str]] = []
        self._seq = itertools.count()
        #: Bumped by every rule start and stop, so a rule writer keeping its
        #: own table of live rules can tell when the rule set changed under
        #: it.
        self.rules_version = 0

    # -- rule management (the Rule Management Daemon's surface) -------------
    def start_rule(self, rule: TbfRule) -> None:
        """Install ``rule``; its queue starts with a full bucket.

        Any RPCs of this job currently waiting in the fallback queue are
        *not* migrated — like Lustre, classification happens at enqueue time.
        """
        if rule.name in self._rules:
            raise ValueError(f"rule {rule.name!r} already exists")
        if rule.job_id in self._by_job:
            raise ValueError(f"job {rule.job_id!r} already has a rule")
        self._rules[rule.name] = rule
        self._by_job[rule.job_id] = _TbfQueue(
            rule, TokenBucket(rule.rate, rule.depth, None, self.env.now)
        )
        self.rules_version += 1
        # A new rule may unblock queued work for slots waiting on tokens.
        self.on_work()

    def stop_rule(self, name: str) -> int:
        """Remove rule ``name``; queued RPCs drain through fallback.

        Returns the number of RPCs re-filed to the fallback queue.
        """
        rule = self._rules.pop(name, None)
        if rule is None:
            raise KeyError(f"no rule named {name!r}")
        # Its heap entries go stale: their seq matches no later queue.
        queue = self._by_job.pop(rule.job_id)
        self.rules_version += 1
        moved = len(queue.items)
        if moved:
            self._fallback.extend(queue.items)
            self.on_work()  # fallback queue gained servable work
        return moved

    def change_rate(self, name: str, rate: float, rank: Optional[int] = None) -> None:
        """Re-rate (and optionally re-rank) one existing rule in place: a
        one-entry :meth:`change_rates` batch."""
        self.change_rates(((name, rate, rank),))

    def change_rates(
        self, changes: Iterable[Tuple[str, float, Optional[int]]]
    ) -> None:
        """Re-rate (and re-rank, unless the rank is ``None``) rules in order.

        Each ``(name, rate, rank)`` entry settles its rule's bucket, so
        accrued tokens survive the change and only the slope is updated,
        which is how Lustre applies ``rate=`` changes to live rules.  A
        backlogged queue is re-pushed under the entry's own next ``seq``,
        which invalidates any heap entry computed under the old rate
        lazily.  The batch calls ``on_work`` once, after its last change
        (deadlines may have moved earlier); an entry that is rejected (an
        unknown name, a bad rate or time) raises before its rule changes,
        and the entries before it stay applied and are woken for.
        """
        rules = self._rules
        by_job = self._by_job
        now = self.env.now
        changed = False
        try:
            for name, rate, rank in changes:
                rule = rules.get(name)
                if rule is None:
                    raise KeyError(f"no rule named {name!r}")
                queue = by_job[rule.job_id]
                # Settles the bucket and yields its next-token deadline in
                # one call; it rejects a bad rate or time before anything
                # is changed.
                deadline = queue.bucket.set_rate(now, rate)
                rule.rate = float(rate)
                if rank is not None:
                    rule.rank = rank
                if queue.items:
                    self._push(rule.job_id, queue, deadline)
                changed = True
        finally:
            if changed:
                self.on_work()

    def rule_names(self) -> List[str]:
        """Names of currently installed rules."""
        return sorted(self._rules)

    def get_rule(self, name: str) -> TbfRule:
        return self._rules[name]

    def has_rule_for_job(self, job_id: str) -> bool:
        return job_id in self._by_job

    # -- policy surface ----------------------------------------------------------
    def enqueue(self, rpc: Rpc) -> None:
        """Classify and queue an arriving RPC (one dict lookup)."""
        now = rpc.arrived = self.env.now
        queue = self._by_job.get(rpc.job_id)
        if queue is None:
            self._fallback.append(rpc)
        else:
            queue.items.append(rpc)
            if len(queue.items) == 1:
                self._push(rpc.job_id, queue, queue.bucket.ready_at(now))
        self.on_work()

    def poll(self) -> Tuple[Optional[Rpc], float]:
        """One heap walk: the next serviceable RPC, or the next wake time.

        A token-backed queue whose token has matured wins (earliest
        deadline, then rank); otherwise the fallback queue is served
        opportunistically.  Walking the heap pops stale entries (``seq``
        other than the queue's version, empty or vanished queue) and
        re-files entries whose deadline has lapsed — the queue matured in
        the past, or the bucket moved under the entry — at the bucket's
        actual ready time.
        Re-filing matured queues at ``now`` is what lets *rank* break the
        tie between several queues whose tokens are all available (the
        paper's rule hierarchy).

        This is the OSS pool's hot path, so a heap step calls no method and
        no ``min``/``max`` builtin: it reads and takes the queue's token with
        :class:`~repro.lustre.bucket.TokenBucket`'s own
        ``ready_at``/``try_consume`` expressions on the bucket's fields (each
        clamp written as the comparison that picks the same float, NaN and
        ``-0.0`` included), and re-files the queue as :meth:`_push` would.
        """
        now = self.env.now
        heap = self._heap
        by_job = self._by_job
        while heap:
            deadline, _rank, seq, job_id = heap[0]
            queue = by_job.get(job_id)
            if queue is None or seq != queue.version or not queue.items:
                heappop(heap)  # stale entry
                continue
            # The bucket's ready_at(now) and try_consume(now), inline with
            # their expressions: one bucket is read per heap step.
            bucket = queue.bucket
            depth = bucket.depth
            rate = bucket._rate
            if 1 > depth + _EPS:
                ready = _INF  # the bucket can never hold a token
            else:
                last = bucket._last
                if not last <= now < _INF:
                    raise _bad_time(now, last)
                have = bucket._tokens + rate * (now - last)
                if not have < depth:  # min(depth, have)
                    have = depth
                if have + _EPS >= 1:
                    ready = now
                elif rate == 0.0:
                    ready = _INF
                else:
                    ready = now + (1 - have) / rate
            if ready > deadline + 1e-12:
                rpc = None  # the deadline lapsed: re-file at the ready time
            elif ready <= now:
                # Serve: take the token, and re-file the queue at its next
                # ready time if it still holds RPCs.
                if not have + _EPS >= 1:
                    raise RuntimeError(
                        f"TBF queue of {job_id!r}: deadline matured but "
                        "token missing"
                    )
                tokens = have - 1
                if not tokens > 0.0:  # max(0.0, have - 1)
                    tokens = 0.0
                bucket._tokens = tokens
                bucket._last = now
                items = queue.items
                rpc = items.popleft()
                if not items:
                    heappop(heap)
                    return rpc, now
                # ready_at(now) just after the take: no time has passed.
                have = tokens + rate * 0.0
                if not have < depth:
                    have = depth
                if have + _EPS >= 1:
                    ready = now
                elif rate == 0.0:
                    ready = _INF
                else:
                    ready = now + (1 - have) / rate
            else:
                # Nearest token deadline is in the future.
                if not self._fallback:
                    return None, ready
                break
            # _push, inline: the entry's pop and its re-push are one
            # heapreplace (every entry's seq differs, so the order in which
            # entries surface is the same).
            queue.version = seq = next(self._seq)
            if ready == _INF:
                heappop(heap)
            else:
                heapreplace(heap, (ready, queue.rule.rank, seq, job_id))
            if rpc is not None:
                return rpc, now

        if self._fallback:
            rpc = self._fallback.popleft()
            rpc.via_fallback = True
            return rpc, now
        return None, _INF

    # -- internals -----------------------------------------------------------------
    def _push(self, job_id: str, queue: _TbfQueue, deadline: float) -> None:
        queue.version = seq = next(self._seq)
        if math.isinf(deadline):
            # Rate 0 with an empty bucket: the queue is blocked until a rate
            # change re-pushes it; keep it off the heap entirely.
            return
        heappush(self._heap, (deadline, queue.rule.rank, seq, job_id))
