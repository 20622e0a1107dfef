"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot occurrence with an optional value.  Processes
(:mod:`repro.sim.process`) wait on events by ``yield``-ing them; arbitrary
callbacks may also be attached, which is how the engine itself wires process
resumption.

Events move through three states:

``pending``    created but not yet triggered; callbacks may be added.
``triggered``  scheduled on the environment's calendar with a value.
``processed``  callbacks have run; the value is final.

The separation of *triggered* and *processed* matters for determinism: a
callback added after triggering but before processing still runs, while adding
one after processing raises, surfacing ordering bugs instead of silently
dropping wakeups.

A fourth, terminal state exists for wakeups that lost a race:

``cancelled``  :meth:`Event.cancel` dropped the callbacks; the calendar
               entry is skipped *lazily* when its turn comes (O(1), nothing
               is removed from the calendar).  Cancelling discards any
               waiters, so it is only appropriate for pure alarms nobody
               awaits exclusively.

The model's own callback-only timers (the OSS pool's token deadline, the OST
completion check) are not events at all: they are calendar calls
(:meth:`~repro.sim.engine.Environment.call_later`), cancelled through
:meth:`~repro.sim.engine.Environment.cancel_call`.

Events enter the calendar through two engine-owned inserts, each stamping
the next ``seq``: ``succeed``/``fail`` append to the now FIFO through
``env._now_append`` (a triggered event is due at ``now``), and a
:class:`Timeout` files itself ``delay`` seconds ahead through
``env._insert``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Environment

__all__ = [
    "Event",
    "Timeout",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "ConditionValue",
]

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` is whatever the interrupter supplied, typically a short
    string or an exception describing why the victim should stop waiting.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence processes can wait for.

    Parameters
    ----------
    env:
        Owning environment.  Events are bound to exactly one environment and
        may only be triggered once.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks invoked (in insertion order) when the event is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._cancelled: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have run (or the event was cancelled)."""
        return self.callbacks is None

    @property
    def cancelled(self) -> bool:
        """True when :meth:`cancel` discarded this event."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        if self._value is _PENDING:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception when it failed)."""
        if self._value is _PENDING:
            raise RuntimeError("event not yet triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._cancelled:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid = eid = env._eid + 1
        env._now_append((eid, None, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive ``exception``."""
        if self._value is not _PENDING or self._cancelled:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() expects an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid = eid = env._eid + 1
        env._now_append((eid, None, self))
        return self

    def defused(self) -> None:
        """Mark a failure as handled so the engine does not re-raise it."""
        self._defused = True

    def cancel(self) -> None:
        """Lazily cancel this event: drop its callbacks and let the calendar
        entry be skipped when its turn comes.

        Any waiters are silently discarded — callers own the guarantee that
        nobody is *exclusively* waiting on a cancelled event.  Cancelling an
        already-processed event raises, surfacing use-after-dispatch bugs.
        """
        if self.callbacks is None:
            raise RuntimeError(f"{self!r} already processed")
        self._cancelled = True
        self.callbacks = None

    # -- callback plumbing -------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; it runs when the event is processed."""
        if self.callbacks is None:
            raise RuntimeError(f"{self!r} already processed")
        self.callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Detach a previously added callback (no-op if already processed)."""
        if self.callbacks is not None and callback in self.callbacks:
            self.callbacks.remove(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "cancelled"
            if self._cancelled
            else "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Unlike a plain :class:`Event`, a timeout is triggered immediately on
    construction — the delay is encoded in its scheduled time.

    This is what processes yield to sleep (client pacing, control-loop
    periods), so construction is a single flat fast path — no
    ``super().__init__`` chain, no ``_schedule`` call.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.delay = delay = float(delay)
        env._insert(delay, None, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout delay={self.delay!r}>"


class ConditionValue:
    """Ordered mapping of events to values produced by :class:`AnyOf`/:class:`AllOf`.

    Preserves the order in which the component events were passed, which makes
    test assertions deterministic.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> "Iterator[Event]":
        return iter(self.events)

    def todict(self) -> dict:
        return {event: event._value for event in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"


class _Condition(Event):
    """Base for composite events over a fixed set of component events.

    Each component event is examined exactly once — either at construction
    (already processed) or via the single callback registered on it — so a
    subclass's :meth:`_on_component` sees every component exactly once and
    can track completion with a counter instead of rescanning the component
    list (the rescan made ``all_of`` over N client processes O(N²) in total;
    the counter makes it O(N)).
    """

    __slots__ = ("_events", "_outstanding")

    def __init__(self, env: "Environment", events: Sequence[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._outstanding = len(self._events)
        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must belong to the same environment")

        if not self._events:
            self.succeed(self._collect())
            return

        check = self._check
        for event in self._events:
            if event.callbacks is None:
                check(event)
            else:
                event.callbacks.append(check)

    def _collect(self) -> ConditionValue:
        # Keyed on *processed*, not *triggered*: a Timeout is triggered at
        # creation but its value only becomes observable once delivered.
        value = ConditionValue()
        append = value.events.append
        for event in self._events:
            if event.callbacks is None and event._ok:
                append(event)
        return value

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggered when *any* component event succeeds (or one fails)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        # ``event`` is processed by the time we run (callback or the
        # construction-time branch), so a success is sufficient on its own —
        # no need to rescan the component list.
        if self._value is not _PENDING:
            return
        if not event._ok:
            event.defused()
            self.fail(event._value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggered when *all* component events have succeeded (or one fails)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event.defused()
            self.fail(event._value)
        else:
            self._outstanding -= 1
            if not self._outstanding:
                self.succeed(self._collect())
