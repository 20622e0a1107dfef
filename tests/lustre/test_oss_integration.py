"""Integration tests: client → network → OSS(NRS) → OST."""

import pytest

from repro.lustre import (
    ClientProcess,
    FifoPolicy,
    Network,
    Oss,
    Ost,
    TbfPolicy,
    TbfRule,
)
from repro.lustre.rpc import Rpc
from repro.sim import Environment

MB = 1 << 20


class TestFifoPath:
    def test_single_job_achieves_disk_bandwidth(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env, FifoPolicy, capacity_mbps=100)
        client = ClientProcess(
            env, net, oss, "job1", "c0", seq(200 * MB), window=8
        )
        env.run()
        # 200 MB at 100 MB/s => ~2 s end-to-end.
        assert env.now == pytest.approx(2.0, rel=0.05)
        assert client.finished
        assert oss.completed_rpcs == 200

    def test_two_jobs_share_fifo_equally(self, make_stack):
        env = Environment()
        ost, policy, oss, net = make_stack(env, FifoPolicy, capacity_mbps=100)
        done_at = {}

        def tracked(total, tag):
            def program(io):
                yield from io.write(total)
                done_at[tag] = io.now

            return program

        ClientProcess(env, net, oss, "job1", "c0", tracked(100 * MB, "j1"))
        ClientProcess(env, net, oss, "job2", "c1", tracked(100 * MB, "j2"))
        env.run()
        # Identical demands through FIFO finish together at ~2 s.
        assert done_at["j1"] == pytest.approx(done_at["j2"], rel=0.05)
        assert env.now == pytest.approx(2.0, rel=0.1)

    def test_jobstats_counts_arrivals(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env, FifoPolicy)
        ClientProcess(env, net, oss, "job1", "c0", seq(10 * MB))
        env.run()
        # Stats were never cleared: all 10 arrivals and completions visible.
        snap = oss.jobstats.snapshot()
        assert snap["job1"].arrived == 10
        assert snap["job1"].served == 10
        oss.jobstats.clear()
        assert oss.jobstats.snapshot() == {}


class TestTbfPath:
    def test_rule_caps_job_throughput(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env, TbfPolicy, capacity_mbps=100)
        # Cap job1 at 20 RPC/s (= 20 MB/s with 1 MiB RPCs).
        policy.start_rule(TbfRule("r1", "job1", rate=20))
        ClientProcess(env, net, oss, "job1", "c0", seq(40 * MB))
        env.run()
        # 40 RPCs at 20/s ≈ 2 s (small initial burst shaves a little).
        assert env.now == pytest.approx(2.0, abs=0.3)

    def test_unmatched_job_unlimited_via_fallback(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env, TbfPolicy, capacity_mbps=100)
        policy.start_rule(TbfRule("r1", "jobOther", rate=1))
        ClientProcess(env, net, oss, "job1", "c0", seq(100 * MB))
        env.run()
        # job1 has no rule: disk-limited, not token-limited.
        assert env.now == pytest.approx(1.0, rel=0.1)

    def test_tbf_not_work_conserving(self, make_stack, seq):
        """The §II motivation: token-gated queues idle the disk."""
        env = Environment()
        ost, policy, oss, net = make_stack(env, TbfPolicy, capacity_mbps=100)
        policy.start_rule(TbfRule("r1", "job1", rate=10))
        ClientProcess(env, net, oss, "job1", "c0", seq(20 * MB))
        env.run()
        # Disk could do 100 MB/s but tokens allow ~10: utilization ~10 %.
        assert ost.utilization(0.0) < 0.25

    def test_two_jobs_rate_split_enforced(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env, TbfPolicy, capacity_mbps=100)
        policy.start_rule(TbfRule("r1", "job1", rate=75))
        policy.start_rule(TbfRule("r2", "job2", rate=25))
        bytes_done = {"job1": 0, "job2": 0}
        oss.on_complete(lambda rpc: bytes_done.__setitem__(
            rpc.job_id, bytes_done[rpc.job_id] + rpc.size_bytes
        ))
        ClientProcess(env, net, oss, "job1", "c0", seq(300 * MB))
        ClientProcess(env, net, oss, "job2", "c1", seq(300 * MB))
        env.run(until=2.0)
        ratio = bytes_done["job1"] / max(1, bytes_done["job2"])
        assert ratio == pytest.approx(3.0, rel=0.15)

    def test_rate_change_mid_run_takes_effect(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env, TbfPolicy, capacity_mbps=1000)
        policy.start_rule(TbfRule("r1", "job1", rate=10))
        ClientProcess(env, net, oss, "job1", "c0", seq(200 * MB))

        def controller(env):
            yield env.timeout(1.0)
            policy.change_rate("r1", 1000)

        env.process(controller(env))
        env.run()
        # ~10 RPCs in first second, remaining ~190 in ~0.2 s after the bump.
        assert env.now == pytest.approx(1.2, abs=0.2)


class TestNetworkLatency:
    def test_latency_delays_completion(self, make_stack):
        env = Environment()
        ost, policy, oss, net = make_stack(env, FifoPolicy, latency_s=0.01)
        done = []

        def program(io):
            yield io.submit(1 * MB)
            done.append(io.now)

        ClientProcess(env, net, oss, "job1", "c0", program)
        env.run()
        # 10 ms there + 10 ms back + 10 ms service (1 MB at 100 MB/s).
        assert done[0] == pytest.approx(0.03, abs=0.002)

    def test_negative_latency_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Network(env, latency_s=-1.0)


class TestClientWindowing:
    def test_window_limits_inflight_rpcs(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env, FifoPolicy, capacity_mbps=10, io_threads=32)
        max_active = []

        def watcher(env):
            while True:
                max_active.append(ost.active_transfers)
                yield env.timeout(0.05)

        watch = env.process(watcher(env))
        ClientProcess(env, net, oss, "job1", "c0", seq(50 * MB), window=4)
        env.run(until=3.0)
        assert max(max_active) <= 4

    def test_invalid_write_size(self, make_stack):
        env = Environment()
        ost, policy, oss, net = make_stack(env, FifoPolicy)

        def program(io):
            yield from io.write(0)

        ClientProcess(env, net, oss, "job1", "c0", program)
        with pytest.raises(ValueError):
            env.run()

    def test_partial_tail_rpc(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env, FifoPolicy)
        client = ClientProcess(
            env, net, oss, "job1", "c0", seq(int(2.5 * MB))
        )
        env.run()
        assert client.io.rpcs_issued == 3  # 1 MiB + 1 MiB + 0.5 MiB
        assert client.io.bytes_written == int(2.5 * MB)


def _blocked_rule(name, job_id):
    """A rule that never grants a token: rate 0, bucket shallower than one."""
    return TbfRule(name, job_id, rate=0.0, depth=0.5)


class TestPooledWakeup:
    """The I/O service slots are one pool woken by one event per OSS."""

    @pytest.mark.parametrize("queued, slots", [(6, 4), (3, 8)])
    def test_stop_rule_refile_starts_transfers_at_the_same_instant(
        self, make_stack, queued, slots
    ):
        env = Environment()
        ost, policy, oss, net = make_stack(env, TbfPolicy, io_threads=slots)
        policy.start_rule(_blocked_rule("r1", "job1"))
        rpcs = [Rpc("job1", f"c{i}", MB) for i in range(queued)]
        for rpc in rpcs:
            oss.receive(rpc)
        env.run(until=0.5)
        assert ost.active_transfers == 0

        def operator(env):
            yield env.timeout(0.5)
            assert policy.stop_rule("r1") == queued

        env.process(operator(env))
        env.run(until=1.0)
        started = min(queued, slots)
        # Every idle slot the re-filed RPCs can use starts at the stop itself.
        assert ost.active_transfers == started
        assert sum(rpc.dequeued is None for rpc in rpcs) == queued - started
        assert [rpc.dequeued for rpc in rpcs[:started]] == [1.0] * started
        assert all(rpc.dequeued is None for rpc in rpcs[started:])

    def test_enqueue_with_every_slot_busy_schedules_nothing(self, make_stack):
        env = Environment()
        ost, policy, oss, net = make_stack(
            env, FifoPolicy, capacity_mbps=1, io_threads=2
        )
        for i in range(2):
            oss.receive(Rpc("job1", f"c{i}", MB))
        env.run(until=0.1)
        assert ost.active_transfers == 2

        scheduled = env.scheduled
        late = Rpc("job1", "late", MB)
        oss.receive(late)
        assert env.scheduled == scheduled
        # The first slot to finish picks the RPC up with its inline poll.
        env.run()
        assert late.completed is not None
        assert oss.completed_rpcs == 3

    @pytest.mark.parametrize("policy_cls", [FifoPolicy, TbfPolicy])
    def test_crash_with_idle_and_busy_slots_serves_every_rpc_once(
        self, make_stack, seq, policy_cls
    ):
        env = Environment()
        ost, policy, oss, net = make_stack(
            env, policy_cls, io_threads=8, latency_s=1e-4
        )
        if policy_cls is TbfPolicy:
            # Token-bound: idle slots wait on the pool's deadline timer.
            policy.start_rule(TbfRule("r1", "job1", rate=40))
        served = []
        oss.on_complete(served.append)
        client = ClientProcess(env, net, oss, "job1", "c0", seq(40 * MB), window=4)
        seen = {}

        def chaos(env):
            yield env.timeout(0.2)
            while not ost.active_transfers:  # crash mid-transfer
                yield env.timeout(0.001)
            seen["busy"] = ost.active_transfers
            seen["idle"] = oss.io_threads - ost.active_transfers
            oss.crash()
            yield env.timeout(0.3)
            oss.recover()

        env.process(chaos(env))
        env.run()
        assert seen["busy"] > 0 and seen["idle"] > 0
        assert oss.rpcs_dropped == seen["busy"]
        assert oss.rpcs_retried == oss.rpcs_dropped
        assert client.finished
        assert len(served) == len(set(map(id, served))) == client.io.rpcs_issued
        assert ost.bytes_served == 40 * MB

    def test_events_per_rpc_stay_pinned(self, make_stack, seq):
        """A one-OST TBF stack: about 9.4 scheduled events per served RPC
        (a thread per slot racing its own deadline timer needed ~21)."""
        env = Environment()
        ost, policy, oss, net = make_stack(env, TbfPolicy, latency_s=1e-4)
        policy.start_rule(TbfRule("r1", "job1", rate=60))
        policy.start_rule(TbfRule("r2", "job2", rate=20))
        ClientProcess(env, net, oss, "job1", "c0", seq(120 * MB))
        ClientProcess(env, net, oss, "job2", "c1", seq(40 * MB))
        ClientProcess(env, net, oss, "job3", "c2", seq(40 * MB))
        env.run()
        assert oss.completed_rpcs == 200
        assert env.scheduled / oss.completed_rpcs <= 10.0
