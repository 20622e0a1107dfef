"""Substrate microbenchmarks — engine, TBF policy and OST throughput.

Not a paper figure: these quantify the simulator itself so regressions in
the substrate (which every experiment's wall time depends on) are visible.
"""

from types import SimpleNamespace

from repro.lustre.nrs import TbfPolicy
from repro.lustre.rpc import Rpc
from repro.lustre.tbf import TbfRule
from repro.lustre.ost import Ost
from repro.sim import Environment


def test_engine_event_throughput(benchmark):
    """Events/second through the bare discrete-event engine."""

    def run_events():
        env = Environment()
        for i in range(10_000):
            env.timeout(i * 1e-6)
        env.run()
        return env.now

    benchmark(run_events)


def test_tbf_enqueue_dequeue_throughput(benchmark):
    """RPCs/second through a 64-rule TBF policy (on a bare clock: the
    policy reads only ``env.now``)."""

    def run_tbf():
        clock = SimpleNamespace(now=0.0)
        policy = TbfPolicy(clock)
        for i in range(64):
            policy.start_rule(TbfRule(f"r{i}", f"job{i}", rate=1e6, depth=64))
        served = 0
        for round_ in range(20):
            for i in range(64):
                for _ in range(4):
                    policy.enqueue(Rpc(job_id=f"job{i}", client_id="c", size_bytes=1))
            while policy.poll()[0] is not None:
                served += 1
            clock.now += 0.001
        return served

    served = benchmark(run_tbf)
    assert served == 20 * 64 * 4


def test_ost_processor_sharing_throughput(benchmark):
    """Transfer completions/second through the fluid-flow OST model."""

    def run_ost():
        env = Environment()
        ost = Ost(env, "ost", capacity_bps=1e9)

        def ignore(_value):
            pass

        def feeder(env):
            for _ in range(200):
                for _ in range(16):
                    ost.transfer(1 << 20, None, ignore, ignore)
                yield env.timeout(0.02)

        env.process(feeder(env))
        env.run()
        return ost.bytes_served

    served = benchmark(run_ost)
    assert served == 200 * 16 * (1 << 20)
