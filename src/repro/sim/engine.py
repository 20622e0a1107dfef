"""The discrete-event simulation core.

:class:`Environment` owns the virtual clock and the event calendar.  Time
only advances when the engine takes the next scheduled entry; between
entries the simulated world is frozen, which is what lets us reproduce the
paper's 100 ms control loop with perfect determinism.

Scheduling order is a total order over ``(time, priority, sequence)`` so two
entries at the same instant are processed in FIFO creation order unless a
priority says otherwise — the same tiebreak real Lustre gets implicitly from
its work queues.  Determinism is the engine's invariant: every optimization
below preserves the exact ``(time, priority, seq)`` dispatch order, which is
verified by the event-trace tests in ``tests/sim/`` and by the byte-identical
fig3–fig9 outputs (see docs/performance.md).

The calendar is a calendar of instants.  The model piles simulated time onto
a few instants (controllers tick on one period, RPCs started together on a
processor-sharing OST finish together, every hop adds the same latency), so
entries wait in FIFO lists keyed by their time rather than sifting through
one heap:

* a heap of the distinct pending times, and a dict from each of those times
  to a list of ``(seq, callback, value)`` entries in push order — where an
  insert with a positive delay goes;
* a *now* FIFO of normal entries pushed at ``now`` for ``now`` (a zero
  delay, or one that float rounding absorbs: ``now + delay == now``); and
* an *urgent* FIFO of ``(seq, event)`` entries (process starts and
  interrupts), which only ever land at ``now``.

An instant dispatches its urgent FIFO first, then its list, then the now
FIFO, re-checking the urgent FIFO before every entry.  That is exactly the
``(time, priority, seq)`` order: every entry in an instant's list was pushed
before the clock reached that instant, so its ``seq`` is below that of any
entry the instant's own dispatches push for ``now``.  The rest of the
current instant's list lives on the environment, so a run stopped by an
event or an exception, and :meth:`Environment.step`, resume it in order.
The dict is only looked up, never iterated.

An entry is either

* a *call* (:meth:`Environment.call_later`, or
  :meth:`Environment.call_soon` for a zero delay): the loop calls
  ``callback(value)`` directly — no event object or callback list.  The
  model's own hops (network delivery and reply, the OSS pool's wakeups and
  timers, OST completion checks and hand-offs) are calls; or
* an *event* (``callback`` is ``None``, ``value`` is the
  :class:`~repro.sim.events.Event`): the loop runs the event's callback
  list.  Everything a process yields is an event.

Both kinds are cancelled lazily (a dead entry is skipped when it surfaces),
and one dispatch loop serves :meth:`Environment.run` under every stop
condition, traced or not, and :meth:`Environment.step`.
:meth:`Environment.call_later` and :meth:`Environment.call_soon` file their
entries inline; the event types in
:mod:`repro.sim.events` insert through the engine's ``_now_append`` (the
bound ``append`` of the now FIFO) and ``_insert``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.sim.events import Event, Timeout
from repro.sim.process import Process

__all__ = ["Environment", "SimulationError", "PRIORITY_URGENT", "PRIORITY_NORMAL"]

#: Priority for engine-internal wakeups that must precede user events.
PRIORITY_URGENT = 0
#: Default priority for ordinary events.
PRIORITY_NORMAL = 1

#: One normal-priority calendar entry: ``(seq, callback, value)``; the
#: callback is ``None`` for an event entry, whose value is the event.  Its
#: time is the instant it is filed under.
Entry = Tuple[int, Optional[Callable[[Any], None]], Any]

#: :meth:`Environment.step`'s stop target: it already reads as processed
#: (``callbacks is None``), so the loop stops after one live dispatch.  Built
#: without ``Event.__init__``, as it belongs to no environment.
_PROCESSED = Event.__new__(Event)
_PROCESSED.callbacks = None


class SimulationError(RuntimeError):
    """Raised for engine misuse (e.g. running a finished simulation)."""


class Environment:
    """Execution environment for a single simulation run.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock, in seconds.

    Notes
    -----
    All component models in this repository (clients, NRS, OSTs, the
    bandwidth-mechanism handles) take an ``Environment`` as their first
    constructor argument and interact exclusively through it, which keeps
    every experiment single-threaded and bit-for-bit reproducible for a
    given seed.

    Two kinds of action share the calendar and its ``seq`` counter: events,
    which processes yield and callbacks attach to, and calls
    (:meth:`call_later`), a callback and its value with no event object.
    A call takes the calendar position a timeout with the same delay,
    created at the same moment, would take, so moving a callback-only timer
    onto a call leaves the ``(time, priority, seq)`` stream,
    :attr:`scheduled` and :attr:`dispatched` unchanged.

    :attr:`now` is a plain attribute for speed; only the engine writes it
    (lint rule ``calendar-seam-only``).
    """

    __slots__ = (
        "now",
        "_instants",
        "_by_time",
        "_now_fifo",
        "_urgent_fifo",
        "_rest",
        "_now_append",
        "_eid",
        "_active_process",
        "_dispatched",
        "_cancelled",
        "trace",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time in seconds.
        self.now = float(initial_time)
        #: Heap of the distinct times that have entries in ``_by_time``.
        self._instants: List[float] = []
        #: Each pending time's normal entries, in push order.
        self._by_time: Dict[float, List[Entry]] = {}
        #: Normal entries pushed at ``now`` for ``now``.
        self._now_fifo: Deque[Entry] = deque()
        #: ``(seq, event)`` urgent entries, all at ``now``.
        self._urgent_fifo: Deque[Tuple[int, Event]] = deque()
        #: The undrained rest of the current instant's list, reversed.
        self._rest: List[Entry] = []
        #: The zero-delay insert; ``Event.succeed``/``fail`` push through it.
        self._now_append: Callable[[Entry], None] = self._now_fifo.append
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._dispatched = 0
        #: Handles of calls cancelled while still on the calendar.
        self._cancelled: Set[int] = set()
        #: Optional dispatch hook ``trace(time, priority, seq, action)`` —
        #: invoked for every dispatched entry, in dispatch order, with the
        #: event or the call's callback as ``action``.  Used by the
        #: determinism tests; leave ``None`` in production runs.
        self.trace: Optional[Callable[[float, int, int, Any], None]] = None

    # -- clock -------------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def dispatched(self) -> int:
        """Total entries dispatched so far (skipped cancelled entries do not
        count).  The dispatch loop keeps the count in a local and writes it
        back when it returns or raises."""
        return self._dispatched

    @property
    def scheduled(self) -> int:
        """Total entries scheduled so far (calendar inserts).

        The benchmark harness's events/sec numerator: the determinism
        invariant fixes the schedule sequence for a given workload, so this
        count is identical across engine versions, and the events/sec ratio
        between two engines equals their wall-clock ratio.
        """
        return self._eid

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event` bound to this env."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        A negative or NaN ``delay`` raises :class:`ValueError`.
        """
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Spawn ``generator`` as a simulation process and return its handle."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.events import AnyOf

        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.events import AllOf

        return AllOf(self, list(events))

    # -- calls ----------------------------------------------------------------
    def call_later(
        self, delay: float, callback: Callable[[Any], None], value: Any = None
    ) -> int:
        """Call ``callback(value)`` ``delay`` seconds from now.

        The entry takes the next ``seq`` at normal priority, exactly where
        ``timeout(delay)`` would put its event, but dispatches with no event
        object.  Returns the entry's handle for :meth:`cancel_call`.  A
        negative or NaN ``delay`` raises :class:`ValueError` and pushes
        nothing.
        """
        if not delay >= 0:
            raise ValueError(f"call delay must be >= 0, got {delay!r}")
        self._eid = eid = self._eid + 1
        now = self.now
        when = now + delay
        if when == now:
            self._now_append((eid, callback, value))
        else:
            batch = self._by_time.get(when)
            if batch is None:
                self._by_time[when] = [(eid, callback, value)]
                heappush(self._instants, when)
            else:
                batch.append((eid, callback, value))
        return eid

    def call_soon(self, callback: Callable[[Any], None], value: Any = None) -> int:
        """Call ``callback(value)`` at the current instant, after what is
        queued for it.

        Files the entry exactly where ``call_later(0.0, callback, value)``
        would: the next ``seq`` at normal priority, in the now FIFO, with
        neither its delay check nor its time arithmetic.  The model's
        same-instant hops use it: the OSS pool's wake and drain, the reply
        after a transfer, the OST's hand-offs and aborts, and a client
        window's completion.  Returns the entry's handle for
        :meth:`cancel_call`.
        """
        self._eid = eid = self._eid + 1
        self._now_append((eid, callback, value))
        return eid

    def cancel_call(self, handle: int) -> None:
        """Cancel the pending call ``handle`` (from :meth:`call_later` or
        :meth:`call_soon`).

        Lazy, like :meth:`Event.cancel`: the entry stays on the calendar and
        the loop skips it when it surfaces, without advancing the clock,
        counting it as dispatched or passing it to ``trace``.  A handle
        whose call already ran must not be cancelled: nothing would skip
        it, and the engine would keep it forever.
        """
        self._cancelled.add(handle)

    # -- scheduling ----------------------------------------------------------
    def _insert(
        self, delay: float, callback: Optional[Callable[[Any], None]], value: Any
    ) -> None:
        """File a normal entry ``delay`` (already validated) seconds from
        now under the next ``seq``: :class:`Timeout`'s insert."""
        self._eid = eid = self._eid + 1
        now = self.now
        when = now + delay
        if when == now:
            self._now_append((eid, callback, value))
        else:
            batch = self._by_time.get(when)
            if batch is None:
                self._by_time[when] = [(eid, callback, value)]
                heappush(self._instants, when)
            else:
                batch.append((eid, callback, value))

    def _schedule(self, event: Event, priority: int = PRIORITY_NORMAL) -> None:
        """Place a triggered event on the calendar at ``now``."""
        self._eid = eid = self._eid + 1
        if priority == PRIORITY_URGENT:
            self._urgent_fifo.append((eid, event))
        else:
            self._now_append((eid, None, event))

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` when idle.

        May report a lazily-cancelled entry's time; the run loop treats that
        conservatively (it takes it, sees it is dead, and moves on).
        """
        if self._urgent_fifo or self._rest or self._now_fifo:
            return self.now
        instants = self._instants
        return instants[0] if instants else float("inf")

    def step(self) -> None:
        """Dispatch exactly one live entry, advancing the clock to its time.

        Lazily-cancelled entries surfacing at the calendar head are discarded
        without counting as the dispatched entry.  Runs :meth:`run`'s loop
        with a stop target that already reads as processed, so the loop's
        event stop ends it after its first live dispatch.
        """
        dispatched = self._dispatched
        self._loop(float("inf"), _PROCESSED)
        if self._dispatched == dispatched:
            raise SimulationError("step() on an empty event queue")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until ``until`` (a time or an event) or until no events remain.

        Returns the value of ``until`` when it is an event; otherwise ``None``.
        A time before ``now`` (or NaN) raises :class:`SimulationError`.
        """
        stop_at: Optional[float] = None
        stop_event: Optional[Event] = None

        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
        else:
            stop_at = float(until)
            if not stop_at >= self.now:
                raise SimulationError(
                    f"run(until={stop_at}) is not a time at or after now "
                    f"(now={self.now})"
                )
        self._loop(float("inf") if stop_at is None else stop_at, stop_event)

        if stop_event is None:
            if stop_at is not None:
                self.now = stop_at
            return None
        if not stop_event.processed:
            raise SimulationError(
                "run() ran out of events before the condition triggered"
            )
        if not stop_event.ok:
            raise stop_event.value
        return stop_event.value

    def _loop(self, limit: float, stop_event: Optional[Event]) -> None:
        """The dispatch loop behind :meth:`run` and :meth:`step`.

        Dispatches entries in ``(time, priority, seq)`` order, with
        everything — instant heap, per-instant dict, both FIFOs, the current
        instant's list, cancelled calls, the ``trace`` hook set when the
        loop starts — held in locals.  It never takes an instant later than
        ``limit``, and it ends right after the dispatch that processes or
        cancels ``stop_event``.
        """
        env = self
        instants = env._instants
        by_time = env._by_time
        now_fifo = env._now_fifo
        next_now = now_fifo.popleft
        urgent = env._urgent_fifo
        # The current instant's list, reversed so entries pop off its end;
        # entries left on it are at ``now``.
        batch = env._rest
        when = env.now
        trace = env.trace
        cancelled = env._cancelled
        normal = PRIORITY_NORMAL
        dispatched = env._dispatched
        try:
            while True:
                # For a call entry, ``event`` is the value it is called with.
                if urgent:
                    seq, event = urgent.popleft()
                    call = None
                    priority = PRIORITY_URGENT
                elif batch:
                    seq, call, event = batch.pop()
                    priority = normal
                elif now_fifo:
                    seq, call, event = next_now()
                    priority = normal
                elif instants and instants[0] <= limit:
                    when = heappop(instants)
                    env._rest = batch = by_time.pop(when)
                    batch.reverse()
                    continue
                else:
                    break
                if call is not None:
                    if seq in cancelled:
                        cancelled.remove(seq)
                        continue
                    env.now = when
                    if trace is not None:
                        trace(when, priority, seq, call)
                    call(event)
                    dispatched += 1
                    if stop_event is not None and stop_event.callbacks is None:
                        break
                    continue
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # lazily cancelled; never dispatched
                env.now = when
                if trace is not None:
                    trace(when, priority, seq, event)
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                dispatched += 1
                if not event._ok and not event._defused:
                    # A failure nobody handled: surface it rather than
                    # losing it.
                    raise event._value
                if stop_event is not None and stop_event.callbacks is None:
                    break
        finally:
            env._dispatched = dispatched

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment now={self.now!r} instants={len(self._instants)}>"
