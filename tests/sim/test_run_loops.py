"""The run loop of :class:`Environment` against single-stepping.

``Environment.run`` resolves its stop condition once and then runs one
dispatch loop, with the calendar and ``trace`` hook held in locals, for
every stop kind (none, a time, an event), traced or not.  ``step()`` runs
the same loop, stopped after one live dispatch, so stepping is no
independent reference for the loop's per-entry work: that reference is the
tuple-heap engine in ``test_calendar_oracle.py``.  What the stepping
reference checks here is stopping and resuming: a run stopped at any point,
and run on from there, must dispatch exactly what stepping one entry at a
time dispatches.  The last test runs every workload on the heap engine
too, with its timeout recycling on and off, and the engine must match it.

Each workload below drives a different branch of the loop body —
single- and multi-callback dispatch, lazily-cancelled entries (held and
unheld carcasses), handled failures, urgent-priority interrupt wakeups,
same-instant ties across priorities, and calendar calls, cancelled or
not.  For every workload, stop kind and traced or not, the test checks
that the callbacks observe the same ``(now, ...)`` log as under stepping,
both at the stop point and after running on to exhaustion, and that the
clock, ``dispatched`` and ``scheduled`` counters end where stepping leaves
them.
"""

import pytest
from test_calendar_oracle import AdaptedHeapEnvironment

from repro.sim import Environment, Interrupt, SimulationError


def note(env, log, *tag):
    log.append((env.now,) + tag)


# -- workloads: each returns a process that finishes mid-run ------------------


def handoff_mesh(env, log):
    """Succeed-chains fed by timers: one callback per dispatch."""

    def producer(mailbox, n):
        for i in range(n):
            yield env.timeout(0.001 + (i % 3) * 0.0005)
            mailbox.pop().succeed(i)

    def consumer(k, mailbox, n):
        for _ in range(n):
            box = env.event()
            mailbox.append(box)
            value = yield box
            note(env, log, "got", k, value)

    consumers = []
    for k in range(4):
        mailbox = []
        n = 6 + 4 * k
        consumers.append(env.process(consumer(k, mailbox, n)))
        env.process(producer(mailbox, n))
    return consumers[0]


def condition_fan(env, log):
    """any_of/all_of and a shared tick: several callbacks per dispatch."""

    def waiter(i):
        for r in range(3 + i):
            events = [env.timeout(0.001 * (1 + (i + j) % 4)) for j in range(4)]
            first = yield env.any_of(events)
            note(env, log, "any", i, r, len(first))
            yield env.all_of(events)
            note(env, log, "all", i, r)

    def listener(i, ticks):
        for tick in ticks:
            value = yield tick
            note(env, log, "tick", i, value)

    ticks = [env.timeout(0.0025 * (n + 1), value=n) for n in range(6)]
    waiters = [env.process(waiter(i)) for i in range(5)]
    for i in range(3):
        env.process(listener(i, ticks))
    return waiters[0]


def cancellation_churn(env, log):
    """Cancelled timeouts and at-now events surfacing at the calendar head."""
    held = []

    def churner(i):
        for r in range(4 + 2 * i):
            doomed = env.timeout(0.0005 * (1 + r % 3))
            doomed.add_callback(lambda e: note(env, log, "doomed fired"))
            if r % 2:
                held.append(doomed)  # this carcass stays referenced
            keep = env.timeout(0.001 * (1 + i % 2))
            doomed.cancel()
            yield keep
            note(env, log, "kept", i, r)
            at_now = env.event()
            at_now.add_callback(lambda e: note(env, log, "at-now fired"))
            at_now.succeed()
            at_now.cancel()

    churners = [env.process(churner(i)) for i in range(4)]
    return churners[0]


def handled_failures(env, log):
    """Failed processes caught by their waiters, and defused failed events."""

    def flaky(r):
        yield env.timeout(0.001 * (r + 1))
        raise ValueError(r)

    def supervisor(i):
        for r in range(2 + i):
            try:
                yield env.process(flaky(r))
            except ValueError as exc:
                note(env, log, "caught", i, exc.args[0])
            failed = env.event()
            failed.add_callback(lambda e, i=i: note(env, log, "failed", i))
            failed.fail(KeyError(i))
            failed.defused()
            yield env.timeout(0.0005)

    supervisors = [env.process(supervisor(i)) for i in range(4)]
    return supervisors[0]


def interrupts(env, log):
    """Urgent interrupt wakeups that detach pending waits, and a kill."""

    def sleeper(i):
        while True:
            try:
                yield env.timeout(0.004)
                note(env, log, "woke", i)
            except Interrupt as interrupt:
                note(env, log, "interrupted", i, interrupt.cause)
                if interrupt.cause >= 2 + i:
                    return

    def poker(targets, victim):
        for n in range(8):
            yield env.timeout(0.0015)
            for target in targets:
                if target.is_alive:
                    target.interrupt(n)
            if n == 3 and victim.is_alive:
                victim.kill()
                note(env, log, "killed")

    sleepers = [env.process(sleeper(i)) for i in range(4)]
    victim = env.process(sleeper(99))
    env.process(poker(sleepers, victim))
    return sleepers[0]


def same_instant_ties(env, log):
    """Process bootstraps (urgent) racing zero-delay timeouts (normal)."""

    def child(tag):
        note(env, log, "start", tag)
        yield env.timeout(0.0)
        note(env, log, "zero", tag)
        yield env.timeout(0.002)
        note(env, log, "done", tag)

    def spawner():
        for r in range(6):
            yield env.timeout(0.002)
            for k in range(3):
                env.timeout(0.0).add_callback(
                    lambda e, r=r, k=k: note(env, log, "tick", r, k)
                )
                env.process(child((r, k)))

    first = env.process(child("first"))
    env.process(spawner())
    return first


def calls_and_cancels(env, log):
    """Calendar calls: re-armed (cancel + push) one-per-owner timers, some
    left cancelled as the last entries of the run, and zero-delay calls
    that succeed the event a process waits on."""
    timers = {}

    def fire(tag):
        del timers[tag[0]]
        note(env, log, "fire", tag)

    def rearm(owner, delay, r):
        if owner in timers:
            env.cancel_call(timers.pop(owner))
        timers[owner] = env.call_later(delay, fire, (owner, r))

    def ticker(owner):
        for r in range(5 + owner):
            rearm(owner, 0.001 * (1 + (r + owner) % 3), r)
            box = env.event()
            env.call_later(0.0, box.succeed, r)
            value = yield box
            note(env, log, "box", owner, value)
            yield env.timeout(0.0007 * (1 + owner % 2))
        if owner % 2 and owner in timers:
            env.cancel_call(timers.pop(owner))  # a dead entry at the tail

    tickers = [env.process(ticker(owner)) for owner in range(4)]
    return tickers[0]


WORKLOADS = [
    handoff_mesh,
    condition_fan,
    cancellation_churn,
    handled_failures,
    interrupts,
    same_instant_ties,
    calls_and_cancels,
]


# -- drivers -------------------------------------------------------------------


def _trace_into(env, rows):
    env.trace = lambda when, priority, seq, event: rows.append(
        (when, priority, seq, type(event).__name__)
    )


def _stepped(workload):
    """Reference run by :meth:`Environment.step`: the log as it stood when
    the milestone was processed, the final log, the dispatch trace and the
    final ``(now, dispatched, scheduled)``."""
    env = Environment()
    log, trace = [], []
    _trace_into(env, trace)
    milestone = workload(env, log)
    at_milestone = None
    while True:
        try:
            env.step()
        except SimulationError:
            break  # calendar exhausted
        if at_milestone is None and milestone.processed:
            at_milestone = list(log)
    return at_milestone, log, trace, (env.now, env.dispatched, env.scheduled)


@pytest.mark.parametrize("traced", [False, True], ids=["fast", "traced"])
@pytest.mark.parametrize("stop", ["none", "time", "event"])
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__)
def test_run_loop_matches_stepping(workload, stop, traced):
    at_milestone, ref_log, ref_trace, ref_end = _stepped(workload)
    # A stop time with dispatches on both sides of it.
    mid = ref_log[len(ref_log) // 2][0]
    assert ref_log[0][0] <= mid < ref_log[-1][0]

    env = Environment()
    log, trace = [], []
    if traced:
        _trace_into(env, trace)
    milestone = workload(env, log)
    if stop == "time":
        assert env.run(until=mid) is None
        assert env.now == mid
        assert log == [row for row in ref_log if row[0] <= mid]
    elif stop == "event":
        assert env.run(until=milestone) is None  # the process returns None
        assert milestone.processed
        assert log == at_milestone
    env.run()

    assert log == ref_log
    assert (env.now, env.dispatched, env.scheduled) == ref_end
    if traced:
        assert trace == ref_trace


def _run_stopped(env, workload, stop, mid, traced):
    """Run ``workload`` on ``env``, stopped as ``stop`` says (at ``mid`` for
    a time stop), then on to exhaustion: the log at the stop point, the
    final log, the dispatch trace and the final ``(now, dispatched,
    scheduled)``."""
    log, trace = [], []
    if traced:
        _trace_into(env, trace)
    milestone = workload(env, log)
    if stop == "time":
        env.run(until=mid)
    elif stop == "event":
        env.run(until=milestone)
    at_stop = list(log)
    env.run()
    return at_stop, log, trace, (env.now, env.dispatched, env.scheduled)


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "no-reuse"])
@pytest.mark.parametrize("traced", [False, True], ids=["fast", "traced"])
@pytest.mark.parametrize("stop", ["none", "time", "event"])
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__)
def test_run_loop_matches_the_heap_reference(workload, stop, traced, reuse):
    """``reuse`` switches the reference's timeout free list only."""
    full = _run_stopped(AdaptedHeapEnvironment(), workload, "none", None, False)
    ref_log = full[1]
    mid = ref_log[len(ref_log) // 2][0]
    assert ref_log[0][0] <= mid < ref_log[-1][0]

    reference = AdaptedHeapEnvironment(reuse_timeouts=reuse)
    expected = _run_stopped(reference, workload, stop, mid, traced)
    got = _run_stopped(Environment(), workload, stop, mid, traced)
    assert got[0] == expected[0]  # the log at the stop point
    assert got[1] == expected[1] == ref_log
    assert got[2] == expected[2]  # the dispatch trace
    assert got[3] == expected[3]  # now, dispatched, scheduled


@pytest.mark.parametrize("traced", [False, True], ids=["fast", "traced"])
@pytest.mark.parametrize("stop", ["none", "time", "event"])
def test_unhandled_failure_surfaces_from_every_loop(stop, traced):
    env = Environment()
    if traced:
        env.trace = lambda *entry: None
    fired = []

    def doomed():
        yield env.timeout(0.002)
        raise ValueError("boom")

    env.process(doomed())
    env.timeout(0.001).add_callback(lambda e: fired.append(env.now))
    later = env.timeout(0.005)
    later.add_callback(lambda e: fired.append(env.now))
    until = {"none": None, "time": 1.0, "event": later}[stop]
    with pytest.raises(ValueError, match="boom"):
        env.run(until=until)
    assert env.now == 0.002
    assert fired == [0.001]
    # bootstrap, two timeouts, and the failed process event itself
    assert env.dispatched == 4


@pytest.mark.parametrize("traced", [False, True], ids=["fast", "traced"])
def test_until_time_past_the_last_event_settles_clock(traced):
    env = Environment()
    if traced:
        env.trace = lambda *entry: None
    fired = []
    env.timeout(0.5).add_callback(lambda e: fired.append(env.now))
    env.timeout(2.0).cancel()  # a dead entry left on the calendar
    env.run(until=3.0)
    assert fired == [0.5]
    assert env.now == 3.0
    assert env.peek() == float("inf")


@pytest.mark.parametrize("traced", [False, True], ids=["fast", "traced"])
def test_until_failed_event_raises_its_exception(traced):
    env = Environment()
    if traced:
        env.trace = lambda *entry: None

    def doomed():
        yield env.timeout(0.5)
        raise KeyError("lost")

    proc = env.process(doomed())
    proc.add_callback(lambda e: e.defused())
    with pytest.raises(KeyError, match="lost"):
        env.run(until=proc)
    assert env.now == 0.5


def test_until_processed_event_returns_without_dispatching():
    env = Environment()
    done = env.timeout(0.1, value="early")
    env.run(until=done)
    env.timeout(1.0)
    dispatched = env.dispatched
    assert env.run(until=done) == "early"
    assert env.dispatched == dispatched
    assert env.now == 0.1
