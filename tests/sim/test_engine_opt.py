"""Edge cases of the optimized dispatch loop: lazy cancellation, FIFO ties,
free-list hygiene, and the determinism invariant on a full scenario."""

import pytest

from repro.sim import Environment


class TestLazyCancellation:
    def test_cancelled_event_at_heap_top_is_skipped(self):
        env = Environment()
        first = env.timeout(1.0)
        fired = []
        first.add_callback(lambda e: fired.append("cancelled-one"))
        env.timeout(2.0).add_callback(lambda e: fired.append("survivor"))
        first.cancel()
        env.run()
        assert fired == ["survivor"]
        assert env.now == 2.0

    def test_cancelled_event_does_not_advance_clock(self):
        env = Environment()
        env.timeout(5.0).cancel()
        env.timeout(1.0)
        env.run()
        # The cancelled 5.0 entry is discarded without touching the clock.
        assert env.now == 1.0

    def test_cancel_skips_do_not_count_as_dispatched(self):
        env = Environment()
        env.timeout(1.0).cancel()
        env.timeout(2.0)
        env.run()
        assert env.dispatched == 1
        assert env.scheduled == 2

    def test_step_skips_cancelled_entries(self):
        env = Environment()
        env.timeout(0.5).cancel()
        env.timeout(1.0)
        env.step()  # must dispatch the live event, not the carcass
        assert env.now == 1.0

    def test_step_raises_when_only_cancelled_entries_remain(self):
        env = Environment()
        env.timeout(0.5).cancel()
        from repro.sim import SimulationError

        with pytest.raises(SimulationError):
            env.step()

    def test_cancel_after_processing_raises(self):
        env = Environment()
        timeout = env.timeout(0.1)
        env.run()
        with pytest.raises(RuntimeError):
            timeout.cancel()

    def test_succeed_after_cancel_raises(self):
        env = Environment()
        event = env.event()
        event.cancel()
        with pytest.raises(RuntimeError):
            event.succeed(1)

    def test_cancelled_property(self):
        env = Environment()
        timeout = env.timeout(1.0)
        assert not timeout.cancelled
        timeout.cancel()
        assert timeout.cancelled


class TestFifoTieOrder:
    def test_identical_time_and_priority_preserve_seq_order(self):
        env = Environment()
        order = []
        for tag in range(8):
            env.timeout(1.0).add_callback(lambda e, t=tag: order.append(t))
        env.run()
        assert order == list(range(8))

    def test_fifo_order_survives_free_list_reuse(self):
        env = Environment()
        # Populate the free list with recycled timeouts first.
        for _ in range(4):
            env.timeout(0.001)
        env.run()
        assert env._free_timeouts  # recycled carcasses available
        order = []
        for tag in range(6):
            env.timeout(1.0).add_callback(lambda e, t=tag: order.append(t))
        env.run()
        assert order == list(range(6))


class TestFreeListHygiene:
    def test_recycled_timeout_starts_with_no_callbacks(self):
        env = Environment()
        stale_calls = []
        first = env.timeout(0.1)
        first.add_callback(lambda e: stale_calls.append("first"))
        first_id = id(first)
        del first  # recycling requires that nobody holds a reference
        env.run()
        assert stale_calls == ["first"]
        assert len(env._free_timeouts) == 1
        # The recycled instance must come back callback-free: the first
        # run's callback must not fire again.
        second = env.timeout(0.1)
        assert id(second) == first_id  # the free list actually recycled it
        assert second.callbacks == []
        env.run()
        assert stale_calls == ["first"]

    def test_referenced_timeout_is_never_recycled(self):
        env = Environment()
        held = env.timeout(0.1, value="keep")
        env.run()
        # We still hold `held`, so the engine must not have recycled it.
        assert held not in env._free_timeouts
        fresh = env.timeout(0.2)
        assert fresh is not held
        assert held.value == "keep"

    def test_reuse_can_be_disabled(self):
        env = Environment(reuse_timeouts=False)
        timeout = env.timeout(0.1)
        env.run()
        assert env._free_timeouts == []
        assert env.timeout(0.1) is not timeout

    def test_recycled_value_is_reset(self):
        env = Environment()
        env.timeout(0.1, value="old-value")
        env.run()
        second = env.timeout(0.1)  # recycled, value defaults to None
        env.run()
        assert second.value is None


class _TraceRecorder:
    """Records (time, priority, seq, type-name) per dispatched event."""

    def __init__(self):
        self.rows = []

    def __call__(self, when, priority, seq, event):
        self.rows.append((when, priority, seq, type(event).__name__))


def _quickstart_trace(reuse_timeouts: bool):
    from repro.cluster.builder import build
    from repro.cluster.experiment import execute
    from repro.scenarios import REGISTRY

    env = Environment(reuse_timeouts=reuse_timeouts)
    trace = _TraceRecorder()
    env.trace = trace
    spec = REGISTRY.build("quickstart", file_mib=24.0, procs=2)
    execute(build(spec, env=env))
    return trace.rows


class TestDeterminism:
    def test_quickstart_trace_is_reproducible(self):
        assert _quickstart_trace(True) == _quickstart_trace(True)

    def test_free_list_reuse_does_not_change_the_event_trace(self):
        """The optimization toggle must be unobservable: identical
        (time, priority, seq) dispatch order with reuse on and off."""
        assert _quickstart_trace(True) == _quickstart_trace(False)

    def test_trace_hook_sees_every_dispatch(self):
        env = Environment()
        trace = _TraceRecorder()
        env.trace = trace
        for _ in range(5):
            env.timeout(0.5)
        env.run()
        assert len(trace.rows) == 5
        assert env.dispatched == 5
