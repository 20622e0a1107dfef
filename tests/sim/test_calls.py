"""Calendar calls: :meth:`Environment.call_later` and :meth:`cancel_call`.

A call is a ``(seq, callback, value)`` calendar entry with no event
object, due at its time with normal priority.  It takes the next ``seq`` exactly where ``timeout(delay)`` would
put an event, so calls and events interleave in one ``(time, priority,
seq)`` order; a cancelled call is skipped like a lazily-cancelled event —
no clock advance, no ``dispatched`` count, no ``trace`` call.
"""

import math

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.engine import PRIORITY_NORMAL
from repro.sim.tracediff import action_name, trace_scenario


def _traced(env):
    rows = []
    env.trace = lambda when, priority, seq, action: rows.append(
        (when, priority, seq, action_name(action))
    )
    return rows


def _logger(log, env):
    def record(value):
        log.append((env.now, value))

    return record


# -- ordering -------------------------------------------------------------------


@pytest.mark.parametrize("call_first", [True, False], ids=["call-first", "event-first"])
def test_call_and_event_at_one_instant_dispatch_in_seq_order(call_first):
    env = Environment()
    log = []
    record = _logger(log, env)
    if call_first:
        handle = env.call_later(1.0, record, "call")
        env.timeout(1.0).add_callback(lambda e: record("event"))
    else:
        env.timeout(1.0).add_callback(lambda e: record("event"))
        handle = env.call_later(1.0, record, "call")
    assert handle == (1 if call_first else 2)
    env.run()
    expected = ["call", "event"] if call_first else ["event", "call"]
    assert log == [(1.0, tag) for tag in expected]
    assert (env.scheduled, env.dispatched) == (2, 2)


def test_zero_delay_call_ties_with_succeed_at_the_same_instant():
    """Inside a dispatch, ``call_later(0.0, ...)`` and ``Event.succeed``
    both push at ``now``: whichever comes first dispatches first."""
    env = Environment()
    log = []
    record = _logger(log, env)

    def fan_out(_value):
        done = env.event()
        done.add_callback(lambda e: record("event"))
        env.call_later(0.0, record, "call-1")
        done.succeed()
        env.call_later(0.0, record, "call-2")

    env.call_later(0.5, fan_out)
    env.run()
    assert log == [(0.5, "call-1"), (0.5, "event"), (0.5, "call-2")]


def test_call_value_defaults_to_none():
    env = Environment()
    got = []
    env.call_later(0.0, got.append)
    env.run()
    assert got == [None]


# -- cancellation ---------------------------------------------------------------


def _with_cancelled_tail(env):
    """A live call at 1.0, a cancelled one at 2.0 (the last entry), and a
    cancelled one between two live ones at 0.5."""
    log = []
    record = _logger(log, env)
    env.call_later(0.5, record, "a")
    env.cancel_call(env.call_later(0.5, record, "dead-mid"))
    env.call_later(0.5, record, "b")
    env.call_later(1.0, record, "c")
    env.cancel_call(env.call_later(2.0, record, "dead-tail"))
    return log


@pytest.mark.parametrize("stop", ["none", "time", "event"])
def test_cancelled_call_is_skipped_by_run(stop):
    env = Environment()
    rows = _traced(env)
    log = _with_cancelled_tail(env)
    stop_event = env.timeout(3.0)  # seq 6: processed after both dead calls
    until = {"none": None, "time": 2.5, "event": stop_event}[stop]
    env.run(until=until)
    assert log == [(0.5, "a"), (0.5, "b"), (1.0, "c")]
    live = [(0.5, PRIORITY_NORMAL, 1), (0.5, PRIORITY_NORMAL, 3), (1.0, PRIORITY_NORMAL, 4)]
    if stop != "time":
        live.append((3.0, PRIORITY_NORMAL, 6))
    assert [row[:3] for row in rows] == live
    assert env.dispatched == len(live)
    assert env.scheduled == 6
    # The dead tail at 2.0 moved no clock: a drain ends at the last live
    # entry, a time stop at its bound, an event stop at the event.
    assert env.now == {"none": 3.0, "time": 2.5, "event": 3.0}[stop]
    if stop == "none":
        assert env.peek() == math.inf


def test_cancelled_tail_leaves_the_clock_at_the_last_live_call():
    env = Environment()
    log = _with_cancelled_tail(env)
    env.run()
    assert env.now == 1.0
    assert env.dispatched == 3
    assert log[-1] == (1.0, "c")


def test_cancelled_call_is_skipped_by_step():
    env = Environment()
    rows = _traced(env)
    log = _with_cancelled_tail(env)
    for _ in range(3):
        env.step()
    assert log == [(0.5, "a"), (0.5, "b"), (1.0, "c")]
    assert env.dispatched == 3 and len(rows) == 3
    with pytest.raises(SimulationError, match="empty"):
        env.step()  # only the dead tail was left: skipped, clock unmoved
    assert env.now == 1.0
    assert env.dispatched == 3 and len(rows) == 3


def test_cancelling_one_of_two_calls_at_an_instant_keeps_the_other():
    env = Environment()
    got = []
    first = env.call_later(1.0, got.append, "first")
    env.call_later(1.0, got.append, "second")
    env.cancel_call(first)
    env.run()
    assert got == ["second"]


def test_rearming_timer_dispatches_only_its_last_push():
    """The OSS deadline and OST check pattern: cancel the pending call and
    push a new one; only the surviving push runs."""
    env = Environment()
    fired = []
    handle = None

    def arm(delay):
        nonlocal handle
        if handle is not None:
            env.cancel_call(handle)
        handle = env.call_later(delay, fired.append, delay)

    for delay in (3.0, 2.0, 5.0, 4.0):
        arm(delay)
    env.run()
    assert fired == [4.0]
    assert env.now == 4.0 and env.dispatched == 1 and env.scheduled == 4


# -- validation -----------------------------------------------------------------


@pytest.mark.parametrize("delay", [float("nan"), -1.0, -1e-300, float("-inf")])
def test_nan_or_negative_delay_raises_and_pushes_nothing(delay):
    env = Environment()
    with pytest.raises(ValueError) as exc:
        env.call_later(delay, print)
    assert str(exc.value) == f"call delay must be >= 0, got {delay!r}"
    assert "\n" not in str(exc.value)
    assert env.scheduled == 0
    assert env.peek() == math.inf


# -- trace ----------------------------------------------------------------------


class _Hop:
    def fire(self, value):
        pass


def test_trace_sees_every_call_with_its_key():
    env = Environment()
    rows = _traced(env)
    hop = _Hop()
    env.call_later(0.5, hop.fire, 1)
    env.timeout(0.25)
    env.call_later(0.25, hop.fire, 2)
    env.run()
    assert rows == [
        (0.25, PRIORITY_NORMAL, 2, "Timeout"),
        (0.25, PRIORITY_NORMAL, 3, "_Hop.fire"),
        (0.5, PRIORITY_NORMAL, 1, "_Hop.fire"),
    ]
    assert env.dispatched == len(rows)


def test_trace_scenario_keys_the_models_hops_by_qualname():
    """A traced quickstart names each model hop by its callback, the same
    in two runs; no call is keyed by a bare type such as ``method``."""
    first = trace_scenario("quickstart")
    assert trace_scenario("quickstart") == first
    names = {name for _, _, _, name in first}
    assert {
        "Oss._on_drain",
        "Oss._on_transfer",
        "Ost._on_check",
        "Network._deliver",
        "Network._reply",
        "Network._finish",
        "_Window.on_done",
    } <= names
    assert "method" not in names
