"""Network Request Scheduler policies.

The NRS sits between RPC arrival at the OSS and service by I/O threads
(paper Fig. 1).  Two policies reproduce the paper's baselines and mechanism:

* :class:`FifoPolicy` — the **No BW** baseline (§IV-C): RPCs are served
  strictly first-come-first-serve with no rate control.
* :class:`TbfPolicy` — the classful token-bucket policy wrapping
  :class:`~repro.lustre.tbf.TbfScheduler`; both the **Static BW** baseline
  and AdapTBF drive it, differing only in who sets the rule rates and when.

Policies expose a small pull interface to the OSS's pool of I/O service
slots: ``dequeue`` returns a ready RPC or ``None``; ``next_wake`` says when
to re-poll; ``poll`` fuses the two into one pass (the hot path — a freed
slot would otherwise walk the scheduler's deadline heap twice per cycle).
In the push direction, a policy calls its ``on_work`` hook whenever queued
work may have become serviceable — an arrival, a rule start, a stop that
re-files RPCs to the fallback queue, a rate change — and the owning OSS
decides whether any idle slot needs waking.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional, Tuple

from repro.lustre.rpc import Rpc
from repro.lustre.tbf import TbfRule, TbfScheduler

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

    # -- policy surface ----------------------------------------------------------
    @abstractmethod
    def enqueue(self, rpc: Rpc) -> None:
        """Accept an arriving RPC."""

    @abstractmethod
    def dequeue(self) -> Optional[Rpc]:
        """Return the next serviceable RPC, or None when nothing is ready."""

    @abstractmethod
    def next_wake(self) -> float:
        """Absolute time when a dequeue may next succeed (``inf`` = never)."""

    def poll(self) -> Tuple[Optional[Rpc], float]:
        """Fused ``(dequeue(), next_wake())`` in one pass.

        Returns ``(rpc, _)`` when an RPC is serviceable and ``(None, wake)``
        otherwise; the wake time is only meaningful in the second form.
        Policies with a shared scan (TBF's deadline heap) override this to
        avoid walking their structures twice per service-slot cycle.
        """
        rpc = self.dequeue()
        if rpc is not None:
            return rpc, self.env.now
        return None, self.next_wake()

    @property
    @abstractmethod
    def pending(self) -> int:
        """Number of queued RPCs."""


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

    def dequeue(self) -> Optional[Rpc]:
        return self._queue.popleft() if self._queue else None

    def next_wake(self) -> float:
        # FIFO is ready iff non-empty; emptiness only changes on arrival.
        return math.inf

    def poll(self) -> Tuple[Optional[Rpc], float]:
        queue = self._queue
        if queue:
            return queue.popleft(), self.env.now
        return None, math.inf

    @property
    def pending(self) -> int:
        return len(self._queue)


class TbfPolicy(NrsPolicy):
    """Token Bucket Filter policy with runtime rule management.

    A thin, environment-aware wrapper over :class:`TbfScheduler`; rule
    management methods mirror the Lustre ``nrs_tbf_rule`` interface the
    AdapTBF Rule Management Daemon drives (§III-D).

    When the environment's kernel backend advertises
    ``vectorized_buckets`` (the ``"array"`` backend), the scheduler is
    given a :class:`~repro.lustre.bucket.BucketArray` bank so all rule
    buckets of this OST live in one struct-of-arrays block and batch
    settles run vectorized.  Per-op arithmetic is bit-identical either
    way, so the choice never shows up in event traces or figures.
    """

    __slots__ = ("scheduler",)

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        kernel = getattr(env, "kernel", None)
        if kernel is not None and getattr(kernel, "vectorized_buckets", False):
            from repro.lustre.bucket import BucketArray

            self.scheduler = TbfScheduler(bucket_bank=BucketArray())
        else:
            self.scheduler = TbfScheduler()

    # -- rule management --------------------------------------------------------
    def start_rule(self, rule: TbfRule) -> None:
        self.scheduler.start_rule(self.env.now, rule)
        # A new rule may unblock queued work for slots waiting on tokens.
        self.on_work()

    def stop_rule(self, name: str) -> int:
        moved = self.scheduler.stop_rule(self.env.now, name)
        if moved:
            self.on_work()  # fallback queue gained servable work
        return moved

    def change_rate(self, name: str, rate: float, rank: Optional[int] = None) -> None:
        self.scheduler.change_rate(self.env.now, name, rate, rank=rank)
        self.on_work()  # deadlines may have moved earlier

    def rule_names(self):
        return self.scheduler.rule_names()

    def get_rule(self, name: str) -> TbfRule:
        return self.scheduler.get_rule(name)

    def has_rule_for_job(self, job_id: str) -> bool:
        return self.scheduler.has_rule_for_job(job_id)

    # -- policy surface ----------------------------------------------------------
    def enqueue(self, rpc: Rpc) -> None:
        rpc.arrived = self.env.now
        self.scheduler.enqueue(self.env.now, rpc)
        self.on_work()

    def dequeue(self) -> Optional[Rpc]:
        return self.scheduler.dequeue(self.env.now)

    def next_wake(self) -> float:
        return self.scheduler.next_wake(self.env.now)

    def poll(self) -> Tuple[Optional[Rpc], float]:
        return self.scheduler.poll(self.env.now)

    @property
    def pending(self) -> int:
        return self.scheduler.pending

    def pending_for_job(self, job_id: str) -> int:
        """Queued RPCs of one job (rule queue + fallback) — the backlog the
        controller folds into its demand signal."""
        return self.scheduler.pending_for_job(job_id)
