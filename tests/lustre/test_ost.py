"""Unit tests for the processor-sharing OST bandwidth server."""

import pytest

from repro.lustre.ost import Ost
from repro.sim import Environment


def _never(value):
    raise AssertionError(f"transfer {value!r} aborted without a crash")


def start(ost, nbytes, on_done=lambda value: None):
    """Start a transfer whose completion calls ``on_done``; an abort fails."""
    ost.transfer(nbytes, nbytes, on_done, _never)


def test_single_transfer_takes_size_over_capacity():
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=100.0)
    times = []
    start(ost, 250.0, lambda value: times.append(env.now))
    env.run()
    assert times == [pytest.approx(2.5)]


def test_two_equal_transfers_share_bandwidth():
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=100.0)
    times = {}
    for tag in ("a", "b"):
        start(ost, 100.0, lambda value, t=tag: times.setdefault(t, env.now))
    env.run()
    # Each gets 50 B/s => both complete at t=2 (not t=1).
    assert times["a"] == pytest.approx(2.0)
    assert times["b"] == pytest.approx(2.0)


def test_short_transfer_finishes_first_then_long_speeds_up():
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=100.0)
    times = {}
    start(ost, 50.0, lambda value: times.setdefault("short", env.now))
    start(ost, 150.0, lambda value: times.setdefault("long", env.now))
    env.run()
    # Shared 50/50 until short finishes at t=1 (50B at 50B/s); long then has
    # 100B left at full 100B/s => completes at t=2.
    assert times["short"] == pytest.approx(1.0)
    assert times["long"] == pytest.approx(2.0)


def test_late_arrival_slows_existing_transfer():
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=100.0)
    times = {}

    def starter(env):
        start(ost, 100.0, lambda value: times.setdefault("first", env.now))
        yield env.timeout(0.5)
        start(ost, 200.0, lambda value: times.setdefault("second", env.now))

    env.process(starter(env))
    env.run()
    # First: 50B done by t=0.5, then 50B at 50B/s => t=1.5.
    assert times["first"] == pytest.approx(1.5)
    # Second: 50B by t=1.5 (shared), 150B at 100B/s => t=3.0.
    assert times["second"] == pytest.approx(3.0)


def test_aggregate_rate_equals_capacity_under_load():
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=1000.0)
    for _ in range(10):
        start(ost, 500.0)
    env.run()
    # 5000 bytes at 1000 B/s => all done at t=5 regardless of concurrency.
    assert env.now == pytest.approx(5.0)
    assert ost.bytes_served == pytest.approx(5000.0)


def test_active_transfers_counter():
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=100.0)
    start(ost, 100.0)
    start(ost, 100.0)
    assert ost.active_transfers == 2
    env.run()
    assert ost.active_transfers == 0


def test_utilization_accounting():
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=100.0)
    start(ost, 100.0)
    env.run()
    env.timeout(1.0)
    env.run()  # idle second
    assert ost.utilization(since=0.0, until=2.0) == pytest.approx(0.5)


def test_utilization_is_taken_over_the_rated_capacity():
    """A capacity cut still in force at ``until`` leaves the rate unchanged."""
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=100.0)
    start(ost, 100.0)
    env.run()  # one busy second at the rated capacity
    ost.set_capacity(25.0)
    env.timeout(1.0)
    env.run()  # one idle second, degraded
    assert ost.rated_capacity_bps == 100.0
    assert ost.utilization(since=0.0, until=2.0) == pytest.approx(0.5)


def test_invalid_parameters():
    env = Environment()
    with pytest.raises(ValueError):
        Ost(env, "bad", capacity_bps=0.0)
    ost = Ost(env, "ost0", capacity_bps=1.0)
    with pytest.raises(ValueError):
        start(ost, 0.0)


@pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
def test_non_finite_capacity_is_rejected_when_built(capacity):
    with pytest.raises(ValueError, match=f"must be finite and > 0, got {capacity}"):
        Ost(Environment(), "bad", capacity_bps=capacity)


@pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
def test_non_finite_capacity_is_rejected_by_set_capacity(capacity):
    """Rejected where it is passed in, not later inside the engine; the
    transfer in flight keeps its rate."""
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=100.0)
    times = []
    start(ost, 100.0, lambda value: times.append(env.now))
    with pytest.raises(ValueError, match=f"must be finite and > 0, got {capacity}"):
        ost.set_capacity(capacity)
    env.run()
    assert ost.capacity_bps == 100.0
    assert times == [1.0]


def test_many_staggered_transfers_conserve_work():
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=100.0)
    completions = []

    def feeder(env):
        for i in range(20):
            start(ost, 25.0, lambda value: completions.append(env.now))
            yield env.timeout(0.05)

    env.process(feeder(env))
    env.run()
    assert len(completions) == 20
    # Total work 500 B at 100 B/s with continuous backlog: finish >= 5 s.
    assert env.now == pytest.approx(5.0, abs=0.2)
    assert ost.bytes_served == pytest.approx(500.0)


def test_transfer_hands_its_value_to_on_done():
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=100.0)
    done = []
    ost.transfer(100.0, "rpc-a", lambda value: done.append((env.now, value)), _never)
    env.run()
    assert done == [(pytest.approx(1.0), "rpc-a")]


def test_crash_aborts_inflight_transfers_in_transfer_order():
    """``fail_inflight`` pushes every in-flight transfer's ``on_abort`` at
    the crash instant, in transfer-id order, and cancels the pending
    completion check, which then never dispatches."""
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=100.0)
    done, aborted = [], []
    for tag in ("a", "b", "c"):
        ost.transfer(100.0, tag, done.append, lambda v: aborted.append((env.now, v)))
    env.run(until=1.0)
    dispatched = env.dispatched
    assert ost.fail_inflight() == 3
    assert ost.active_transfers == 0
    env.run()
    assert done == []
    assert aborted == [(1.0, "a"), (1.0, "b"), (1.0, "c")]
    assert env.now == 1.0
    assert env.dispatched == dispatched + 3
    assert ost.bytes_served == 0.0
