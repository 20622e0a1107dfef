"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim import Environment, SimulationError


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=5.5).now == 5.5


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.0)
    env.run()
    assert env.now == 3.0


def test_negative_timeout_rejected():
    env = Environment()
    for delay in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            env.timeout(delay)


def test_run_until_nan_dispatches_nothing():
    env = Environment()
    env.trace = lambda *entry: None
    env.timeout(0.5)
    with pytest.raises(SimulationError, match="nan"):
        env.run(until=float("nan"))
    assert (env.now, env.dispatched, env.peek()) == (0.0, 0, 0.5)


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_time_with_no_events_settles_clock():
    env = Environment()
    env.run(until=7.0)
    assert env.now == 7.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    for until in (5.0, float("nan")):
        with pytest.raises(SimulationError):
            env.run(until=until)


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_events_fire_in_time_order():
    env = Environment()
    order = []
    for delay in (5.0, 1.0, 3.0):
        env.timeout(delay).add_callback(lambda e, d=delay: order.append(d))
    env.run()
    assert order == [1.0, 3.0, 5.0]


def test_same_time_events_fire_in_creation_order():
    env = Environment()
    order = []
    for tag in ("a", "b", "c"):
        env.timeout(2.0).add_callback(lambda e, t=tag: order.append(t))
    env.run()
    assert order == ["a", "b", "c"]


def test_succeed_now_fires_before_later_timeout():
    env = Environment()
    order = []
    env.timeout(0.5).add_callback(lambda e: order.append("later"))
    event = env.event()
    event.add_callback(lambda e: order.append("now"))
    event.succeed()
    env.run()
    assert order == ["now", "later"]


def test_cancelled_at_now_entry_skipped():
    env = Environment()
    fired = []
    event = env.event()
    event.add_callback(lambda e: fired.append("dead"))
    event.succeed()
    event.cancel()
    env.timeout(0.5).add_callback(lambda e: fired.append("live"))
    env.run()
    assert fired == ["live"]


def test_peek_and_step_dispatch_one_event_at_a_time():
    env = Environment()
    order = []
    env.timeout(2.0).add_callback(lambda e: order.append("far"))
    event = env.event()
    event.add_callback(lambda e: order.append("now"))
    event.succeed()
    assert env.peek() == 0.0
    env.step()
    assert order == ["now"]
    assert env.peek() == 2.0
    env.step()
    assert order == ["now", "far"]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(2.5)
    env.timeout(1.5)
    assert env.peek() == 1.5
    env.run()
    assert env.peek() == float("inf")


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    ev.succeed("payload")
    env.run()
    assert seen == ["payload"]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("x"))


def test_event_fail_requires_exception_instance():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_unhandled_failed_event_raises_from_run():
    env = Environment()
    env.event().fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_defused_failure_does_not_raise():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("boom"))
    ev.defused()
    env.run()  # must not raise


def test_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_callback_after_processed_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    env.run()
    with pytest.raises(RuntimeError):
        ev.add_callback(lambda e: None)


def test_run_until_event_returns_its_value():
    env = Environment()

    def producer(env):
        yield env.timeout(2.0)
        return 99

    proc = env.process(producer(env))
    assert env.run(until=proc) == 99
    assert env.now == 2.0


def test_run_until_event_starved_raises():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError, match="ran out of events"):
        env.run(until=never)
