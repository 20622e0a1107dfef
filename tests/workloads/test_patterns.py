"""Unit tests for workload patterns, executed on the real client stack."""

import pytest

from repro.lustre import ClientProcess, FifoPolicy
from repro.sim import Environment
from repro.workloads.patterns import (
    BurstPattern,
    DelayedContinuousPattern,
    MixedReadWritePattern,
    OnOffPattern,
    PhasedPattern,
    PoissonArrivalPattern,
    SequentialReadPattern,
    SequentialWritePattern,
    TraceReplayPattern,
)
from repro.workloads.trace import TraceRecord

MB = 1 << 20
NAN = float("nan")
INF = float("inf")


@pytest.fixture
def run_pattern(make_stack):
    def _run(pattern, capacity_mbps=1000, until=None):
        env = Environment()
        ost, policy, oss, net = make_stack(
            env, FifoPolicy, capacity_mbps=capacity_mbps
        )
        client = ClientProcess(env, net, oss, "job", "c0", pattern.program)
        if until is None:
            env.run()
        else:
            env.run(until=until)
        return env, client, ost

    return _run


class TestSequentialWritePattern:
    def test_writes_exact_volume(self, run_pattern):
        env, client, ost = run_pattern(SequentialWritePattern(10 * MB))
        assert client.io.bytes_written == 10 * MB
        assert ost.bytes_served == 10 * MB

    def test_start_delay_respected(self, run_pattern):
        env, client, ost = run_pattern(
            SequentialWritePattern(10 * MB, start_delay_s=2.0)
        )
        # 10 MB at 1000 MB/s is ~10 ms; almost all time is the delay.
        assert env.now == pytest.approx(2.01, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            SequentialWritePattern(0)
        with pytest.raises(ValueError):
            SequentialWritePattern(1, start_delay_s=-1)

    def test_hint(self):
        assert SequentialWritePattern(5 * MB).total_bytes_hint() == 5 * MB


class TestBurstPattern:
    def test_gap_pacing_sleeps_after_completion(self, run_pattern):
        pattern = BurstPattern(
            burst_bytes=10 * MB, interval_s=1.0, count=3, pace="gap"
        )
        env, client, ost = run_pattern(pattern)
        # 3 bursts of ~10ms separated by two 1s gaps => ~2.03s total.
        assert env.now == pytest.approx(2.03, abs=0.1)
        assert client.io.bytes_written == 30 * MB

    def test_cadence_pacing_fixed_period(self, run_pattern):
        pattern = BurstPattern(
            burst_bytes=10 * MB, interval_s=1.0, count=3, pace="cadence"
        )
        env, client, ost = run_pattern(pattern)
        # Bursts start at 0, 1, 2; last burst ~10ms => ~2.01s.
        assert env.now == pytest.approx(2.01, abs=0.1)

    def test_cadence_backpressure_when_burst_overruns(self, run_pattern):
        # 100 MB at 50 MB/s takes 2 s > 1 s interval: bursts run back-to-back.
        pattern = BurstPattern(
            burst_bytes=100 * MB, interval_s=1.0, count=2, pace="cadence"
        )
        env, client, ost = run_pattern(pattern, capacity_mbps=50)
        assert env.now == pytest.approx(4.0, abs=0.2)

    def test_start_delay_offsets_first_burst(self, run_pattern):
        pattern = BurstPattern(
            burst_bytes=1 * MB, interval_s=1.0, count=1, start_delay_s=3.0
        )
        env, client, ost = run_pattern(pattern)
        assert env.now == pytest.approx(3.0, abs=0.1)

    def test_hint(self):
        assert (
            BurstPattern(burst_bytes=MB, interval_s=1, count=7).total_bytes_hint()
            == 7 * MB
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(burst_bytes=0, interval_s=1, count=1),
            dict(burst_bytes=1, interval_s=0, count=1),
            dict(burst_bytes=1, interval_s=1, count=0),
            dict(burst_bytes=1, interval_s=1, count=1, start_delay_s=-1),
            dict(burst_bytes=1, interval_s=1, count=1, pace="warp"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BurstPattern(**kwargs)


class TestDelayedContinuousPattern:
    def test_waits_then_streams(self, run_pattern):
        pattern = DelayedContinuousPattern(delay_s=5.0, total_bytes=10 * MB)
        env, client, ost = run_pattern(pattern)
        assert env.now == pytest.approx(5.01, abs=0.05)
        assert client.io.bytes_written == 10 * MB

    def test_nothing_written_before_delay(self, make_stack):
        pattern = DelayedContinuousPattern(delay_s=5.0, total_bytes=10 * MB)
        env = Environment()
        ost, policy, oss, net = make_stack(
            env, FifoPolicy, capacity_mbps=1000
        )
        ClientProcess(env, net, oss, "job", "c0", pattern.program)
        env.run(until=4.9)
        assert ost.bytes_served == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DelayedContinuousPattern(delay_s=-1, total_bytes=1)
        with pytest.raises(ValueError):
            DelayedContinuousPattern(delay_s=0, total_bytes=0)


#: One NaN and one infinite argument per pattern constructor, each with the
#: parameter its one-line error must name.  A bare ``<= 0`` check let every
#: NaN through, and the pattern failed only when its stream first ran.
_ONE = (SequentialWritePattern(MB),)
_TRACE = (TraceRecord(0.0, "job", "write", MB),)
NON_FINITE = [
    (SequentialWritePattern, dict(total_bytes=NAN), "total_bytes"),
    (SequentialWritePattern, dict(total_bytes=MB, start_delay_s=INF), "start_delay_s"),
    (SequentialReadPattern, dict(total_bytes=NAN), "total_bytes"),
    (SequentialReadPattern, dict(total_bytes=INF), "total_bytes"),
    (MixedReadWritePattern, dict(total_bytes=MB, chunk_bytes=NAN), "chunk_bytes"),
    (MixedReadWritePattern, dict(total_bytes=INF), "total_bytes"),
    (BurstPattern, dict(burst_bytes=MB, interval_s=NAN, count=2), "interval_s"),
    (BurstPattern, dict(burst_bytes=INF, interval_s=1.0, count=2), "burst_bytes"),
    (DelayedContinuousPattern, dict(delay_s=NAN, total_bytes=MB), "delay_s"),
    (DelayedContinuousPattern, dict(delay_s=1.0, total_bytes=INF), "total_bytes"),
    (PoissonArrivalPattern, dict(rate_per_s=NAN, op_bytes=MB, count=2), "rate_per_s"),
    (PoissonArrivalPattern, dict(rate_per_s=1.0, op_bytes=MB, count=INF), "count"),
    (OnOffPattern, dict(on_bytes=MB, on_s=1.0, off_s=NAN, cycles=2), "off_s"),
    (OnOffPattern, dict(on_bytes=MB, on_s=INF, off_s=1.0, cycles=2), "on_s"),
    (PhasedPattern, dict(phases=_ONE, repeat=NAN), "repeat"),
    (PhasedPattern, dict(phases=_ONE, repeat=INF), "repeat"),
    (TraceReplayPattern, dict(records=_TRACE, time_scale=NAN), "time_scale"),
    (TraceReplayPattern, dict(records=_TRACE, data_scale=INF), "data_scale"),
]


@pytest.mark.parametrize(
    "pattern, kwargs, name",
    NON_FINITE,
    ids=[f"{cls.__name__}-{name}-{kw[name]}" for cls, kw, name in NON_FINITE],
)
def test_non_finite_argument_is_rejected_with_one_line(pattern, kwargs, name):
    with pytest.raises(ValueError) as excinfo:
        pattern(**kwargs)
    message = str(excinfo.value)
    assert "\n" not in message and message.startswith(f"{name} must be")
