"""Edge-case tests for the network and OSS layers."""

import gc

import pytest

from repro.lustre import ClientProcess, FifoPolicy, Network, Oss, Ost
from repro.lustre.rpc import Rpc, RpcKind
from repro.sim import Environment

MB = 1 << 20


class TestNetwork:
    def test_zero_latency_is_synchronous_delivery(self):
        env = Environment()
        ost = Ost(env, "ost0", capacity_bps=100 * MB)
        oss = Oss(env, ost, FifoPolicy(env))
        net = Network(env, latency_s=0.0)
        rpc = Rpc(job_id="j", client_id="c", size_bytes=MB)
        net.submit(rpc, oss)
        # Delivered before any simulation step ran.
        assert oss.jobstats.outstanding("j") == 1

    def test_rpcs_carried_counter(self):
        env = Environment()
        ost = Ost(env, "ost0", capacity_bps=100 * MB)
        oss = Oss(env, ost, FifoPolicy(env))
        net = Network(env, latency_s=0.001)
        for _ in range(5):
            net.submit(Rpc(job_id="j", client_id="c", size_bytes=MB), oss)
        assert net.rpcs_carried == 5

    def test_latency_applies_both_ways(self):
        env = Environment()
        ost = Ost(env, "ost0", capacity_bps=1000 * MB)
        oss = Oss(env, ost, FifoPolicy(env))
        net = Network(env, latency_s=0.05)
        done = []
        client_event = net.submit(
            Rpc(job_id="j", client_id="c", size_bytes=MB), oss
        )
        client_event.add_callback(lambda e: done.append(env.now))
        env.run()
        # 50 ms out + ~1 ms service + 50 ms back.
        assert done[0] == pytest.approx(0.101, abs=0.005)


class TestRpcLifetime:
    def test_completed_rpcs_are_not_cyclic_garbage(self):
        """A served RPC is freed by its refcount: the reply hops drop the
        RPC's back-references to its own events before the client's event
        fires, so no completed RPC waits for the cyclic collector."""
        from repro.cluster.builder import build
        from repro.cluster.experiment import execute
        from repro.scenarios import REGISTRY

        gc.collect()
        gc.disable()
        try:
            cluster = build(REGISTRY.build("quickstart"))  # kept alive
            execute(cluster)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = sum(
                1
                for obj in gc.garbage
                if type(obj) is Rpc and obj.completed is not None
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert cluster.osses[0].completed_rpcs > 0
        assert leaked == 0


class TestOssEdges:
    def test_rpc_overhead_charged_per_rpc(self):
        env = Environment()
        ost = Ost(env, "ost0", capacity_bps=1000 * MB)
        oss = Oss(
            env, ost, FifoPolicy(env), io_threads=1, rpc_overhead_s=0.01
        )
        net = Network(env, latency_s=0.0)

        def program(io):
            yield from io.write(5 * MB)

        ClientProcess(env, net, oss, "j", "c", program, window=1)
        env.run()
        # 5 RPCs x (10 ms overhead + 1 ms transfer) = ~55 ms.
        assert env.now == pytest.approx(0.055, abs=0.01)

    def test_invalid_oss_parameters(self):
        env = Environment()
        ost = Ost(env, "ost0", capacity_bps=MB)
        with pytest.raises(ValueError):
            Oss(env, ost, FifoPolicy(env), io_threads=0)
        with pytest.raises(ValueError):
            Oss(env, ost, FifoPolicy(env), rpc_overhead_s=-1)

    def test_read_rpcs_flow_through(self):
        env = Environment()
        ost = Ost(env, "ost0", capacity_bps=100 * MB)
        oss = Oss(env, ost, FifoPolicy(env))
        net = Network(env, latency_s=0.0)
        kinds = []
        oss.on_complete(lambda rpc: kinds.append(rpc.kind))

        def program(io):
            yield io.submit(MB, kind=RpcKind.READ)
            yield io.submit(MB, kind=RpcKind.WRITE)

        ClientProcess(env, net, oss, "j", "c", program)
        env.run()
        assert kinds == [RpcKind.READ, RpcKind.WRITE]

    def test_rpc_lifecycle_timestamps_ordered(self):
        env = Environment()
        ost = Ost(env, "ost0", capacity_bps=100 * MB)
        oss = Oss(env, ost, FifoPolicy(env))
        net = Network(env, latency_s=0.001)
        rpcs = []
        oss.on_complete(rpcs.append)

        def program(io):
            yield from io.write(3 * MB)

        ClientProcess(env, net, oss, "j", "c", program)
        env.run()
        for rpc in rpcs:
            assert (
                rpc.submitted
                <= rpc.arrived
                <= rpc.dequeued
                <= rpc.completed
            )
            assert rpc.queue_wait is not None and rpc.queue_wait >= 0
            assert rpc.service_time is not None and rpc.service_time > 0

    def test_many_threads_few_rpcs(self):
        """More threads than work: no deadlock, no double service."""
        env = Environment()
        ost = Ost(env, "ost0", capacity_bps=100 * MB)
        oss = Oss(env, ost, FifoPolicy(env), io_threads=64)
        net = Network(env, latency_s=0.0)

        def program(io):
            yield from io.write(2 * MB)

        client = ClientProcess(env, net, oss, "j", "c", program)
        env.run()
        assert client.finished
        assert oss.completed_rpcs == 2
