"""The calendar of instants against the tuple heap it replaced.

:class:`~repro.sim.engine.Environment` files a normal entry with a positive
delay under its instant (a heap of distinct times and a list per time),
a zero-delay or float-absorbed one (``now + delay == now``) in a now FIFO,
and a process start or interrupt in an urgent FIFO, and dispatches each
instant's urgent FIFO, then its list, then the now FIFO.  It used to keep
every entry as a ``(time, priority, seq, callback, value)`` tuple in one
``heapq``.  ``HeapEnvironment`` below is that engine, its class body
copied verbatim (docstrings dropped) with its own copy of the free-list
cap; ``AdaptedHeapEnvironment`` adds the two inserts :mod:`repro.sim.events`
now calls, as pushes onto the heap, and ``call_soon`` as a
``call_later(0.0, ...)``.  It is the independent per-entry
reference for the engine, whose ``step()`` runs the same loop as ``run()``.

That engine also recycled the timeouts processes yield through a
refcount-gated free list, which today's engine does not have.  Hypothesis
draws the reference's ``reuse_timeouts`` setting, so the engine must match
the reference with reuse on and with it off.  Hypothesis programs run on
both engines and must be indistinguishable: after every run, step and peek,
the same ``(time, priority, seq, action)`` dispatch stream, the same log of
what every callback saw (``now`` and a mid-run ``peek`` included), the same
``now``, ``scheduled`` and ``dispatched``, and the same exception when a
run raises.  A program mixes zero and colliding positive delays,
``cancel_call``, yielded timeouts (recycled ones in the reference),
``call_soon`` (a zero-delay ``call_later`` in the reference),
``Event.succeed``/``fail``/``cancel``, process starts, interrupts and
kills, absorbed delays at a large ``now`` (``2**60``, where every delay
below 128 s is absorbed), ``run(until=t)`` on and between instants,
``run(until=event)`` stopping mid-instant with more inserts and another
run after it, ``step()`` and ``peek()``; callbacks schedule more work from
inside the dispatch.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Event, Interrupt, Process, SimulationError, Timeout
from repro.sim.engine import PRIORITY_NORMAL
from repro.sim.tracediff import action_name

Entry = Tuple[float, int, int, Optional[Callable[[Any], None]], Any]

#: The reference's bound on recycled Timeout objects kept per environment.
_FREE_LIST_CAP = 4096

# -- the tuple-heap engine, verbatim -------------------------------------------


class HeapEnvironment:

    __slots__ = (
        "now",
        "_queue",
        "_eid",
        "_active_process",
        "_dispatched",
        "_cancelled",
        "_free_timeouts",
        "_reuse_timeouts",
        "_push",
        "trace",
    )

    def __init__(self, initial_time: float = 0.0, reuse_timeouts: bool = True) -> None:
        #: Current simulated time in seconds.
        self.now = float(initial_time)
        self._queue: List[Entry] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._dispatched = 0
        #: Handles of calls cancelled while still on the calendar.
        self._cancelled: Set[int] = set()
        self._free_timeouts: List[Timeout] = []
        self._reuse_timeouts = bool(reuse_timeouts)
        #: The calendar insert; every scheduling site pushes through it.
        self._push: Callable[[Entry], None] = partial(heappush, self._queue)
        #: Optional dispatch hook ``trace(time, priority, seq, action)`` —
        #: invoked for every dispatched entry, in dispatch order, with the
        #: event or the call's callback as ``action``.  Used by the
        #: determinism tests; leave ``None`` in production runs.
        self.trace: Optional[Callable[[float, int, int, Any], None]] = None

    # -- clock -------------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def dispatched(self) -> int:
        return self._dispatched

    @property
    def scheduled(self) -> int:
        return self._eid

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        free = self._free_timeouts
        if free:
            if not delay >= 0:
                raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
            timeout = free.pop()
            timeout._value = value
            timeout._defused = False
            timeout._cancelled = False
            timeout.delay = delay = float(delay)
            self._eid = eid = self._eid + 1
            self._push((self.now + delay, PRIORITY_NORMAL, eid, None, timeout))
            return timeout
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
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
        if not delay >= 0:
            raise ValueError(f"call delay must be >= 0, got {delay!r}")
        self._eid = eid = self._eid + 1
        self._push((self.now + delay, PRIORITY_NORMAL, eid, callback, value))
        return eid

    def cancel_call(self, handle: int) -> None:
        self._cancelled.add(handle)

    # -- scheduling ----------------------------------------------------------
    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        self._eid += 1
        self._push((self.now + delay, priority, self._eid, None, event))

    def peek(self) -> float:
        queue = self._queue
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        queue = self._queue
        while queue:
            when, priority, seq, call, event = heappop(queue)
            if call is not None:
                if seq in self._cancelled:
                    self._cancelled.remove(seq)
                    continue
                self.now = when
                if self.trace is not None:
                    self.trace(when, priority, seq, call)
                call(event)
                self._dispatched += 1
                return
            callbacks = event.callbacks
            if callbacks is None:
                continue  # lazily cancelled; never dispatched
            self._dispatch(when, priority, seq, event, callbacks)
            return
        raise SimulationError("step() on an empty event queue")

    def _dispatch(
        self,
        when: float,
        priority: int,
        seq: int,
        event: Event,
        callbacks: List[Callable[[Event], None]],
    ) -> None:
        self.now = when
        if self.trace is not None:
            self.trace(when, priority, seq, event)
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        self._dispatched += 1
        if not event._ok and not event._defused:
            # A failure nobody handled: surface it rather than losing it.
            raise event._value
        if (
            self._reuse_timeouts
            and type(event) is Timeout
            # Only the dispatch loop's local and getrefcount's argument
            # reference the object: nothing in user code can observe reuse.
            and getrefcount(event) == 3
            and len(self._free_timeouts) < _FREE_LIST_CAP
        ):
            callbacks.clear()
            event.callbacks = callbacks
            self._free_timeouts.append(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
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
        limit = float("inf") if stop_at is None else stop_at

        env = self
        queue = env._queue
        pop = heappop
        trace = env.trace
        cancelled = env._cancelled
        reuse = env._reuse_timeouts
        free = env._free_timeouts
        cap = _FREE_LIST_CAP
        timeout_type = Timeout
        refcount = getrefcount
        dispatched = env._dispatched
        try:
            while queue:
                if queue[0][0] > limit:
                    break
                # For a call entry, ``event`` is the value it is called with.
                when, priority, seq, call, event = pop(queue)
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
                    # Lazily-cancelled: skip, but recycle the carcass.
                    if (
                        reuse
                        and type(event) is timeout_type
                        and refcount(event) == 2
                        and len(free) < cap
                    ):
                        event.callbacks = []
                        free.append(event)
                    continue
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
                    raise event._value
                if (
                    reuse
                    and type(event) is timeout_type
                    # Only this loop's local and getrefcount's argument
                    # reference the object: nothing can observe reuse.
                    and refcount(event) == 2
                    and len(free) < cap
                ):
                    # Park the emptied callback list on the recycled
                    # instance so reuse skips the list allocation too.
                    callbacks.clear()
                    event.callbacks = callbacks
                    free.append(event)
                if stop_event is not None and stop_event.callbacks is None:
                    break
        finally:
            env._dispatched = dispatched

        if stop_event is None:
            if stop_at is not None:
                env.now = stop_at
            return None
        if not stop_event.processed:
            raise SimulationError(
                "run() ran out of events before the condition triggered"
            )
        if not stop_event.ok:
            raise stop_event.value
        return stop_event.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment now={self.now!r} pending={len(self._queue)}>"


class AdaptedHeapEnvironment(HeapEnvironment):
    """The heap engine behind the insert API of today's event types, with
    ``call_soon`` as the zero-delay ``call_later`` it stands for."""

    __slots__ = ()

    def call_soon(self, callback, value=None) -> int:
        return self.call_later(0.0, callback, value)

    def _now_append(self, entry) -> None:
        seq, callback, value = entry
        self._push((self.now, PRIORITY_NORMAL, seq, callback, value))

    def _insert(self, delay, callback, value) -> None:
        self._eid = eid = self._eid + 1
        self._push((self.now + delay, PRIORITY_NORMAL, eid, callback, value))


# -- programs --------------------------------------------------------------------

#: Delays a program draws from: zero, a repeated value that makes instants
#: collide, and 256 s, which stays distinct at ``now = 2**60``.
DELAYS = (0.0, 0.1, 1.0, 1.0, 1.0, 2.5, 256.0)
#: ``run(until=now + d)`` offsets: on an instant some delay reaches, or
#: between two.
UNTILS = (0.0, 0.1, 0.25, 1.0, 1.75, 2.5, 256.0, 300.0, 1024.0)
#: A large clock, where ``now + d == now`` for every ``d`` below 128 s.
LATE = 2.0**60


class ProgramRunner:
    """Runs one program on one engine and records everything it observes.

    Top-level ops run between dispatches; every callback (a call, an
    event's callback, a process resuming) then runs the next entry of
    ``reactions``, so work is also scheduled from inside a dispatch.  Both
    engines dispatch in one order exactly when they agree, so they consume
    the same reactions at the same points.
    """

    def __init__(self, env, reactions) -> None:
        self.env = env
        self.reactions = reactions
        self.reacted = 0
        self.trace: List[Tuple[float, int, int, str]] = []
        self.log: List[tuple] = []
        self.calls: List[int] = []
        self.settled: Set[int] = set()  # call tags that ran or were cancelled
        self.events: List[Event] = []
        self.procs: List[Process] = []
        env.trace = lambda when, priority, seq, action: self.trace.append(
            (when, priority, seq, action_name(action))
        )

    def snapshot(self, outcome) -> tuple:
        env = self.env
        return (
            outcome,
            len(self.trace),
            env.now,
            env.scheduled,
            env.dispatched,
        )

    # -- callbacks -----------------------------------------------------------
    def on_call(self, tag: int) -> None:
        self.settled.add(tag)
        self.log.append(("call", self.env.now, tag))
        self.react()

    def on_event(self, event: Event) -> None:
        value = event._value
        if not event._ok:
            value = repr(value)
        self.log.append(("event", self.env.now, value))
        self.react()

    def body(self, pid: int, plan: Tuple[int, ...]):
        env = self.env
        for step in plan:
            waitable = [e for e in self.events if not e.cancelled]
            try:
                if step < 0 and waitable:
                    value = yield waitable[step % len(waitable)]
                else:
                    value = yield env.timeout(DELAYS[step % len(DELAYS)], pid)
                self.log.append(("resume", env.now, pid, value))
            except Interrupt as exc:
                self.log.append(("interrupted", env.now, pid, exc.cause))
            except RuntimeError as exc:
                self.log.append(("failed", env.now, pid, str(exc)))
            self.react()
        return pid

    def react(self) -> None:
        if self.reacted < len(self.reactions):
            ops = self.reactions[self.reacted]
            self.reacted += 1
            for op in ops:
                self.apply(op)

    # -- ops -----------------------------------------------------------------
    def apply(self, op) -> Optional[tuple]:
        return getattr(self, "op_" + op[0])(*op[1:])

    def op_call(self, d: int) -> None:
        tag = len(self.calls)
        self.calls.append(self.env.call_later(DELAYS[d], self.on_call, tag))

    def op_soon(self) -> None:
        tag = len(self.calls)
        self.calls.append(self.env.call_soon(self.on_call, tag))

    def op_cancel(self, k: int) -> None:
        pending = [t for t in range(len(self.calls)) if t not in self.settled]
        if pending:
            tag = pending[k % len(pending)]
            self.settled.add(tag)
            self.env.cancel_call(self.calls[tag])

    def op_timeout(self, d: int, held: bool) -> None:
        timeout = self.env.timeout(DELAYS[d], f"t{d}")
        timeout.callbacks.append(self.on_event)
        if held:  # a run can stop on it; the reference never recycles it
            self.events.append(timeout)

    def op_event(self) -> None:
        event = self.env.event()
        event.callbacks.append(self.on_event)
        self.events.append(event)

    def _untriggered(self, k: int) -> Optional[Event]:
        live = [e for e in self.events if not e.triggered and not e.cancelled]
        return live[k % len(live)] if live else None

    def op_succeed(self, k: int) -> None:
        event = self._untriggered(k)
        if event is not None:
            event.succeed(f"e{self.events.index(event)}")

    def op_fail(self, k: int, defuse: bool) -> None:
        event = self._untriggered(k)
        if event is not None:
            event.fail(RuntimeError(f"e{self.events.index(event)}"))
            if defuse:
                event.defused()

    def op_cancel_event(self, k: int) -> None:
        live = [e for e in self.events if e.callbacks is not None]
        if live:
            live[k % len(live)].cancel()

    def op_process(self, plan: Tuple[int, ...]) -> None:
        pid = len(self.procs)
        self.procs.append(self.env.process(self.body(pid, plan), name=f"p{pid}"))

    def _other_alive(self, k: int) -> Optional[Process]:
        alive = [
            p
            for p in self.procs
            if p.is_alive and p is not self.env.active_process
        ]
        return alive[k % len(alive)] if alive else None

    def op_interrupt(self, k: int) -> None:
        proc = self._other_alive(k)
        if proc is not None:
            proc.interrupt(f"i{k}")

    def op_kill(self, k: int) -> None:
        proc = self._other_alive(k)
        if proc is not None:
            proc.kill()

    def op_peek(self) -> None:
        self.log.append(("peek", self.env.now, self.env.peek()))

    # -- top-level only ------------------------------------------------------
    def op_run_until(self, u: int) -> tuple:
        return self.guarded(lambda: self.env.run(until=self.env.now + UNTILS[u]))

    def op_run_event(self, k: int) -> tuple:
        targets = self.events + self.procs
        if not targets:
            return ("no target",)
        target = targets[k % len(targets)]
        return self.guarded(lambda: self.env.run(until=target))

    def op_run(self) -> tuple:
        return self.guarded(self.env.run)

    def op_step(self) -> tuple:
        return self.guarded(self.env.step)

    def guarded(self, action) -> tuple:
        try:
            result = action()
        except (SimulationError, RuntimeError, Interrupt) as exc:
            return ("raised", type(exc).__name__, str(exc))
        return ("returned", repr(result) if isinstance(result, Exception) else result)


def observe(env, program, reactions) -> tuple:
    """Everything ``env`` shows while running ``program`` to exhaustion."""
    runner = ProgramRunner(env, reactions)
    snapshots = []
    for op in program:
        snapshots.append(runner.snapshot(runner.apply(op)))
    # Drain: a run that raises leaves the rest of the calendar in place.
    for _ in range(50):
        if runner.env.peek() == float("inf"):
            break
        snapshots.append(runner.snapshot(runner.op_run()))
    return snapshots, runner.trace, runner.log


def assert_engines_agree(initial_time, reuse, program, reactions) -> None:
    """``reuse`` switches the reference's timeout free list."""
    reference = AdaptedHeapEnvironment(initial_time, reuse_timeouts=reuse)
    expected = observe(reference, program, reactions)
    got = observe(Environment(initial_time), program, reactions)
    assert got[1] == expected[1]  # the (time, priority, seq, action) stream
    assert got[2] == expected[2]  # what the callbacks saw
    assert got[0] == expected[0]  # outcome, now, counters after every op


# -- hypothesis programs -------------------------------------------------------

_delay = st.integers(0, len(DELAYS) - 1)
_pick = st.integers(0, 7)
_plan = st.lists(st.integers(-2, len(DELAYS) - 1), min_size=1, max_size=4).map(tuple)
_call = st.tuples(st.just("call"), _delay)
_soon = st.tuples(st.just("soon"))
_timeout = st.tuples(st.just("timeout"), _delay, st.booleans())
_inner_op = st.one_of(
    # Inserts twice as likely as the rest, so instants fill up.
    _call,
    _call,
    _soon,
    _timeout,
    _timeout,
    st.tuples(st.just("cancel"), _pick),
    st.tuples(st.just("event")),
    st.tuples(st.just("succeed"), _pick),
    st.tuples(st.just("fail"), _pick, st.booleans()),
    st.tuples(st.just("cancel_event"), _pick),
    st.tuples(st.just("process"), _plan),
    st.tuples(st.just("interrupt"), _pick),
    st.tuples(st.just("kill"), _pick),
    st.tuples(st.just("peek")),
)
_run_until = st.tuples(st.just("run_until"), st.integers(0, len(UNTILS) - 1))
_run_event = st.tuples(st.just("run_event"), _pick)
_step = st.tuples(st.just("step"))
_top_op = st.one_of(
    _inner_op,
    _inner_op,
    _run_until,
    _run_event,
    _run_event,
    st.tuples(st.just("run")),
    _step,
    _step,
    _step,
)


@settings(max_examples=200, deadline=None)
@given(
    initial_time=st.sampled_from((0.0, 3.0, LATE)),
    reuse=st.booleans(),
    program=st.lists(_top_op, min_size=8, max_size=30),
    reactions=st.lists(
        st.lists(_inner_op, max_size=3).map(tuple), min_size=8, max_size=60
    ),
)
def test_calendar_of_instants_matches_the_tuple_heap(
    initial_time, reuse, program, reactions
):
    assert_engines_agree(initial_time, reuse, program, reactions)


# -- the orderings the calendar must get right, spelled out -------------------


def test_zero_delay_pushed_in_an_instant_follows_that_instants_list():
    """A call at t=1 pushes a zero-delay call; the other call already filed
    under t=1 was pushed first, so it dispatches first."""
    program = [("call", 4), ("call", 4), ("run",)]
    reactions = [(("call", 0),)]
    assert_engines_agree(0.0, True, program, reactions)
    _, _, log = observe(Environment(0.0), program, reactions)
    assert [entry[2] for entry in log] == [0, 1, 2]


def test_absorbed_delay_keeps_its_seq_among_zero_delay_entries():
    """At ``now = 2**60`` a 0.1 s delay is absorbed: that entry is due now,
    before a zero-delay entry pushed after it."""
    program = [("call", 1), ("call", 0), ("call", 6), ("run",)]
    assert_engines_agree(LATE, True, program, [])
    _, _, log = observe(Environment(LATE), program, [])
    assert [(entry[1], entry[2]) for entry in log] == [
        (LATE, 0),
        (LATE, 1),
        (LATE + 256.0, 2),
    ]


def test_process_start_inside_an_instant_precedes_the_rest_of_its_list():
    """A process started (urgent) while an instant's list still holds
    entries runs before them; ``peek`` inside the dispatch sees the rest."""
    program = [("call", 4), ("call", 4), ("call", 4), ("run",)]
    reactions = [(("peek",),), (("process", (0,)),)]
    assert_engines_agree(0.0, True, program, reactions)
    runner = ProgramRunner(Environment(), reactions)
    for op in program:
        runner.apply(op)
    call = "ProgramRunner.on_call"
    assert [row[3] for row in runner.trace] == [
        call, call, "Event", call, "Timeout", "Process",
    ]
    assert runner.log[1] == ("peek", 1.0, 1.0)


def test_event_stop_mid_instant_resumes_the_rest_in_order():
    """``run(until=event)`` stops inside an instant's list; a later zero-delay
    insert lands after the rest of that list, a process start before it."""
    program = [
        ("call", 4),
        ("timeout", 4, True),
        ("call", 4),
        ("call", 4),
        ("run_event", 0),  # stops on the timeout: calls 1 and 2 remain
        ("call", 0),
        ("process", (0,)),
        ("peek",),
        ("step",),  # the process start is urgent
        ("step",),
        ("run",),
    ]
    assert_engines_agree(0.0, True, program, [])
    _, _, log = observe(Environment(0.0), program, [])
    assert [entry[0] for entry in log] == [
        "call", "event", "peek", "call", "call", "call", "resume",
    ]
    assert [entry[2] for entry in log if entry[0] == "call"] == [0, 1, 2, 3]
