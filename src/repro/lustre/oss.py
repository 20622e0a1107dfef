"""Object Storage Server: a pool of I/O service slots over an NRS policy.

The OSS owns the NRS policy, a :class:`~repro.lustre.jobstats.JobStatsTracker`
and ``io_threads`` service slots — the ost_io threads of the paper's OSS
model (§II-A, Fig. 1).  A slot is busy serving one RPC's bulk transfer,
idle, or parked while the OST is crashed.  This reproduces the
work-conservation semantics the paper analyses: under TBF, slots *can* sit
idle while RPCs wait for tokens (the non-work-conserving behaviour AdapTBF
fixes), while the fallback queue keeps unmatched jobs from starving.

Slots are a count, not simulation processes.  A busy slot is driven by its
OST completion callback: it records the completion and polls the policy
inline for its next RPC.  An idle slot waits for a *signal* (its last poll
found nothing queued) or for a *token deadline* (the time its last poll
said a token matures).  Idle slots are woken as one pool:

* the policy calls its ``on_work`` hook whenever queued work may have
  become serviceable; with at least one idle slot the OSS schedules one
  wake call, which wakes every idle slot (with every slot busy it
  schedules nothing — the next slot to finish finds the work inline);
* the pool counts idle slots per deadline and holds at most one
  deadline timer, at the earliest; it wakes the slots due then;
* the woken slots are served by one *drain* that polls the policy back to
  back, once per woken slot, and starts each granted transfer inside its
  own dispatch.  The first empty poll's wake time becomes the deadline of
  every woken slot still idle.

The reference semantics are one thread per slot, each racing its own
deadline timer against an arrival broadcast.  The pool keeps every poll,
transfer start and completion in that model's order, so outputs are
byte-identical to it.  That fixes the drain's calendar level: while slots
wait for a deadline, the drain runs two dispatch levels after the signal
or deadline (wake call or timer, then drain), where the first waiting
thread's race resolved; while every idle slot waits for a signal, it runs one level
after the signal, where threads parked on the broadcast resumed.  A drain
one level off reorders its polls against other same-instant events —
arrivals, transfer starts on other OSTs — and moves outputs.  Deadlines
stay per slot because two polls at different instants can compute the
same token deadline a rounding step apart.  The first poll runs in an
urgent process start when the OSS is built, as each thread's did, and
slots parked by a crash drain back to back at the recovery call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional

from repro.lustre.jobstats import JobStatsTracker
from repro.lustre.nrs import NrsPolicy
from repro.lustre.ost import Ost
from repro.lustre.rpc import Rpc
from repro.numeric import is_count
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Oss"]

#: Default I/O thread count; Lustre OSSes typically run tens of ost_io
#: threads per CPT.  16 matches the paper's 16-core OSS node.
DEFAULT_IO_THREADS = 16

_INF = float("inf")


class Oss:
    """One Object Storage Server fronting a single OST.

    Parameters
    ----------
    env:
        Simulation environment.
    ost:
        Storage target providing bandwidth.
    policy:
        The NRS policy ordering RPCs (FIFO or TBF).  The OSS installs its
        wakeup as the policy's ``on_work`` hook.
    io_threads:
        Number of concurrent service slots (I/O threads).
    rpc_overhead_s:
        Fixed per-RPC software overhead charged before the bulk transfer
        (request handling, bulk setup).  Zero by default.
    """

    __slots__ = (
        "env",
        "ost",
        "policy",
        "io_threads",
        "rpc_overhead_s",
        "jobstats",
        "_on_complete",
        "_completed_rpcs",
        "_offline",
        "_rpcs_dropped",
        "_rpcs_retried",
        "_idle",
        "_parked",
        "_waits",
        "_timer",
        "_timer_at",
        "_wake_pending",
        "_drain_pending",
        "_signalled",
        "_due",
        "_on_wake_cb",
        "_on_drain_cb",
        "_on_deadline_cb",
        "_on_recover_cb",
        "_after_overhead_cb",
        "_on_transfer_cb",
        "_on_abort_cb",
        "_call_soon",
        "_call_later",
        "_cancel_call",
    )

    def __init__(
        self,
        env: "Environment",
        ost: Ost,
        policy: NrsPolicy,
        io_threads: int = DEFAULT_IO_THREADS,
        rpc_overhead_s: float = 0.0,
    ) -> None:
        # A slot count is an int (not a bool).  The negated comparison also
        # rejects a NaN overhead, which fails every comparison; an infinite
        # one would move the clock to inf.
        if not is_count(io_threads):
            raise ValueError(f"io_threads must be an int >= 1, got {io_threads!r}")
        if not 0 <= rpc_overhead_s < _INF:
            raise ValueError(
                f"rpc_overhead_s must be finite and >= 0, got {rpc_overhead_s}"
            )
        self.env = env
        self.ost = ost
        self.policy = policy
        self.io_threads = io_threads
        self.rpc_overhead_s = rpc_overhead_s
        self.jobstats = JobStatsTracker()
        self._on_complete: List[Callable[[Rpc], None]] = []
        self._completed_rpcs = 0
        self._offline = False
        self._rpcs_dropped = 0
        self._rpcs_retried = 0
        #: Slots waiting for work, and slots parked by a crash; the rest
        #: are busy with one RPC each.
        self._idle = io_threads
        self._parked = 0
        #: Idle slots waiting for a token deadline, by calendar time; the
        #: other idle slots wait for a signal.
        self._waits: Dict[float, int] = {}
        #: The pool's one token-deadline timer (a call's handle), at the
        #: earliest wait.
        self._timer: Optional[int] = None
        self._timer_at = _INF
        #: A wake call / a drain is scheduled and has not dispatched yet;
        #: a signal arrived since the last drain; slots whose deadline came.
        #: The first drain is the slots' first poll, started below.
        self._wake_pending = False
        self._drain_pending = True
        self._signalled = True
        self._due = 0
        self._on_wake_cb = self._on_wake
        self._on_drain_cb = self._on_drain
        self._on_deadline_cb = self._on_deadline
        self._on_recover_cb = self._on_recover
        self._after_overhead_cb = self._after_overhead
        self._on_transfer_cb = self._on_transfer
        self._on_abort_cb = self._requeue
        # The calendar calls every pool step files, bound once.
        self._call_soon = env.call_soon
        self._call_later = env.call_later
        self._cancel_call = env.cancel_call
        policy.on_work = self._on_work
        # The slots' first poll runs in an urgent process start at the
        # instant the OSS is built: work queued before it is found there,
        # and signals before it wake nothing.
        env.process(self._first_poll(), name=f"{ost.name}.io")

    # -- ingress (called by the network) ----------------------------------------
    def receive(self, rpc: Rpc) -> None:
        """An RPC arrives from the network: account it and queue it."""
        self.jobstats.record_arrival(rpc)
        self.policy.enqueue(rpc)

    # -- observability ---------------------------------------------------------
    def on_complete(self, callback: Callable[[Rpc], None]) -> None:
        """Register a callback invoked for every completed RPC."""
        self._on_complete.append(callback)

    @property
    def completed_rpcs(self) -> int:
        return self._completed_rpcs

    @property
    def offline(self) -> bool:
        """True while the backing OST is crashed (fault axis)."""
        return self._offline

    @property
    def rpcs_dropped(self) -> int:
        """In-flight transfers aborted by crashes (served work lost)."""
        return self._rpcs_dropped

    @property
    def rpcs_retried(self) -> int:
        """RPCs requeued after a crash aborted or blocked their service."""
        return self._rpcs_retried

    # -- fault-axis surface ------------------------------------------------------
    def crash(self) -> int:
        """Take the backing OST dark: abort in-flight transfers, park slots.

        Every in-flight transfer is aborted; its slot requeues the aborted
        RPC on the NRS policy (its service starts over after recovery — the
        partial work is lost) and parks.  Idle slots park at their next
        wakeup.  Returns the number of transfers aborted.  Crashing an
        already-offline OSS raises.
        """
        if self._offline:
            raise RuntimeError(f"{self.ost.name} is already offline")
        self._offline = True
        dropped = self.ost.fail_inflight()
        self._rpcs_dropped += dropped
        return dropped

    def recover(self) -> None:
        """Bring the OST back: the parked slots drain at the next dispatch."""
        if not self._offline:
            raise RuntimeError(f"{self.ost.name} is not offline")
        self._offline = False
        self._call_soon(self._on_recover_cb)

    # -- pooled wakeup -------------------------------------------------------------
    # Each step that moves the pool's one deadline timer cancels and files
    # its call itself: the timer is the call ``_timer`` at ``_timer_at``
    # (``None`` at ``inf``: no slot waits for a deadline).
    def _on_work(self) -> None:
        """NRS hook: queued work may have become serviceable."""
        if not self._idle:
            return
        self._signalled = True
        if not self._wake_pending and not self._drain_pending:
            if self._waits:  # slots wait for a deadline: two levels
                self._wake_pending = True
                self._call_soon(self._on_wake_cb)
            else:  # every idle slot waits for a signal: one level
                self._drain_pending = True
                self._call_soon(self._on_drain_cb)

    def _on_wake(self, _value: None) -> None:
        self._wake_pending = False
        if not self._drain_pending:
            self._drain_pending = True
            self._call_soon(self._on_drain_cb)

    def _on_deadline(self, _value: None) -> None:
        self._timer = None
        waits = self._waits
        self._due += waits.pop(self._timer_at)
        # Re-armed at the earliest deadline left before the drain is pushed:
        # the two calls keep that order of ``seq``.
        self._timer_at = at = min(waits, default=_INF)
        if at != _INF:
            self._timer = self._call_later(at - self.env.now, self._on_deadline_cb)
        if not self._drain_pending:
            self._drain_pending = True
            self._call_soon(self._on_drain_cb)

    def _on_drain(self, _value: None) -> None:
        self._drain_pending = False
        if self._signalled:
            # A signal wakes every idle slot; their deadlines are re-armed
            # fresh by the first empty poll.
            self._signalled = False
            self._waits.clear()
            if self._timer is not None:
                self._cancel_call(self._timer)
                self._timer = None
            self._timer_at = _INF
            polls = self._idle
        else:
            polls = self._due
        self._due = 0
        if self._offline:
            self._parked += polls
            self._idle -= polls
            return
        self._serve(polls)

    def _first_poll(self) -> Generator[Event, None, None]:
        self._on_drain(None)
        yield from ()

    def _on_recover(self, _value: None) -> None:
        parked, self._parked = self._parked, 0
        self._idle += parked
        self._serve(parked)

    def _serve(self, polls: int) -> None:
        """Poll up to ``polls`` times back to back, one idle slot per grant;
        the slots left idle wait for the first empty poll's deadline."""
        poll = self.policy.poll
        for left in range(polls, 0, -1):
            rpc, wake = poll()
            if rpc is None:
                self._wait(wake, left)
                return
            self._idle -= 1
            self._start(rpc)

    def _wait(self, wake: float, slots: int) -> None:
        """``slots`` idle slots wait for ``wake`` (``inf``: for a signal)."""
        if wake == _INF:
            return
        now = self.env.now
        delay = wake - now
        if delay < 0.0:
            delay = 0.0
        at = now + delay
        waits = self._waits
        waits[at] = waits.get(at, 0) + slots
        if at < self._timer_at:  # move the timer earlier
            if self._timer is not None:
                self._cancel_call(self._timer)
            self._timer_at = at
            self._timer = self._call_later(delay, self._on_deadline_cb)

    # -- one busy slot ---------------------------------------------------------------
    def _start(self, rpc: Rpc) -> None:
        rpc.dequeued = self.env.now
        if self.rpc_overhead_s:
            self._call_later(self.rpc_overhead_s, self._after_overhead_cb, rpc)
        else:
            self.ost.transfer(
                rpc.size_bytes, rpc, self._on_transfer_cb, self._on_abort_cb
            )

    def _after_overhead(self, rpc: Rpc) -> None:
        if self._offline:
            # The crash landed during request-handling overhead, before the
            # bulk transfer ever started.
            self._requeue(rpc)
            return
        self.ost.transfer(rpc.size_bytes, rpc, self._on_transfer_cb, self._on_abort_cb)

    def _on_transfer(self, rpc: Rpc) -> None:
        rpc.completed = self.env.now
        self._completed_rpcs += 1
        self.jobstats.record_completion(rpc)
        for callback in self._on_complete:
            callback(rpc)
        if rpc.completion is not None:
            self._call_soon(rpc.completion, rpc)
        self._next()

    def _requeue(self, rpc: Rpc) -> None:
        """The crash aborted (or pre-empted) this RPC's transfer: requeue it —
        its service starts over after recovery, the Lustre client-side
        replay behaviour."""
        self._rpcs_retried += 1
        self.policy.enqueue(rpc)
        self._next()

    def _next(self) -> None:
        """A busy slot is free: park it, or poll inline for its next RPC."""
        if self._offline:
            self._parked += 1
            return
        rpc, wake = self.policy.poll()
        if rpc is not None:
            self._start(rpc)
            return
        self._idle += 1
        self._wait(wake, 1)
