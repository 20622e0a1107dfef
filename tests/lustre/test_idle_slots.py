"""No I/O slot idles beside servable work.

The OSS pool's promise, checked at the end of every simulated instant: an
OSS that is online and has an idle slot has an empty fallback queue (an
empty queue under FIFO), and no TBF queue that holds an RPC and whose
bucket holds a whole token, ``bucket.tokens_at(t) >= 1``.  A crashed OSS
promises nothing until it recovers.

The token level is the bucket's exact one.  ``ready_at`` accepts a token
up to the bucket's 1e-9-token tolerance early, so it can report a token a
few picoseconds before the pool's deadline computed for it matures; at
such an instant the slot rightly still waits (``quickstart`` under
``static`` has one, at t ≈ 0.0928734375).

"The end of an instant" is read off the dispatch stream: the engine's
``trace`` hook sees every dispatch, and the first dispatch at a later time
closes the instant before it, whose state is then still untouched.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import REGISTRY
from repro.cluster import build, execute
from repro.lustre import ClientProcess, FifoPolicy, TbfPolicy, TbfRule
from repro.sim import Environment
from simstack import attach_controller, build_stack

RPC_SIZE = 64 * 1024


class SlotWatch:
    """Checks every OSS of a run at the end of every instant."""

    def __init__(self, env, osses):
        self.osses = osses
        self.instants = 0
        self._last = None
        env.trace = self._on_dispatch

    def _on_dispatch(self, when, _priority, _seq, _action):
        if self._last is not None and when != self._last:
            self.check(self._last)
        self._last = when

    def finish(self):
        """Check the last instant of a run that has returned."""
        if self._last is not None:
            self.check(self._last)

    def check(self, t):
        self.instants += 1
        for index, oss in enumerate(self.osses):
            if oss.offline or not oss._idle:
                continue
            policy = oss.policy
            where = f"OSS {index} at t={t!r} with {oss._idle} idle slot(s)"
            if isinstance(policy, FifoPolicy):
                assert not policy._queue, f"{where}: FIFO queue not empty"
                continue
            assert not policy._fallback, f"{where}: fallback queue not empty"
            for job_id, queue in policy._by_job.items():
                assert not (queue.items and queue.bucket.tokens_at(t) >= 1), (
                    f"{where}: {job_id} holds {len(queue.items)} RPC(s) "
                    f"and {queue.bucket.tokens_at(t)!r} tokens"
                )


# -- hypothesis stacks -----------------------------------------------------------

JOBS = ("job0", "job1", "job2")

#: One client: job, window, start delay, and bytes in RPC-size chunks.
clients = st.tuples(
    st.integers(0, 2),
    st.integers(1, 8),
    st.sampled_from([0.0, 0.0, 1e-3, 0.02]),
    st.integers(1, 40),
)

stacks = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["fifo", "tbf", "adaptbf"]),
        "io_threads": st.sampled_from([1, 2, 4, 8]),
        "capacity_mbps": st.sampled_from([20, 100]),
        "latency_s": st.sampled_from([0.0, 100e-6]),
        # Per job under "tbf": a rule rate, or None for no rule (fallback).
        "rates": st.lists(
            st.sampled_from([None, 0.0, 40.0, 150.0, 600.0]), min_size=3, max_size=3
        ),
        # (job, time, new rate) under "tbf"
        "rerate": st.tuples(
            st.integers(0, 2),
            st.sampled_from([1e-3, 0.01, 0.05]),
            st.sampled_from([0.0, 20.0, 300.0, 2000.0]),
        ),
        # (crash time, outage) or None
        "crash": st.none()
        | st.tuples(st.sampled_from([2e-3, 0.01, 0.03]), st.sampled_from([1e-3, 0.02])),
        "clients": st.lists(clients, min_size=1, max_size=5),
    }
)


def _program(delay, chunks):
    def program(io):
        if delay:
            yield io.sleep(delay)
        yield from io.write(chunks * RPC_SIZE)

    return program


def run_stack(stack):
    env = Environment()
    policy_cls = FifoPolicy if stack["policy"] == "fifo" else TbfPolicy
    ost, policy, oss, net = build_stack(
        env,
        policy_cls,
        capacity_mbps=stack["capacity_mbps"],
        io_threads=stack["io_threads"],
        latency_s=stack["latency_s"],
    )
    if stack["policy"] == "tbf":
        ruled = [
            (job, rate) for job, rate in zip(JOBS, stack["rates"]) if rate is not None
        ]
        for job, rate in ruled:
            policy.start_rule(TbfRule(f"r_{job}", job, rate=rate))
        job, at, rate = stack["rerate"]

        def operator(env):
            yield env.timeout(at)
            if policy.has_rule_for_job(JOBS[job]):
                policy.change_rate(f"r_{JOBS[job]}", rate)

        env.process(operator(env))
    elif stack["policy"] == "adaptbf":
        attach_controller(
            env,
            oss,
            nodes={job: n for n, job in enumerate(JOBS, start=1)},
            max_token_rate=stack["capacity_mbps"] * 16,
            interval_s=0.01,
        )
    if stack["crash"] is not None:
        at, outage = stack["crash"]

        def crasher(env):
            yield env.timeout(at)
            oss.crash()
            yield env.timeout(outage)
            oss.recover()

        env.process(crasher(env))
    for n, (job, window, delay, chunks) in enumerate(stack["clients"]):
        ClientProcess(
            env,
            net,
            oss,
            JOBS[job],
            f"c{n}",
            _program(delay, chunks),
            rpc_size=RPC_SIZE,
            window=window,
        )
    watch = SlotWatch(env, [oss])
    env.run(until=0.2)
    watch.finish()
    return watch


@given(stack=stacks)
@settings(max_examples=150, deadline=None)
def test_no_slot_idles_beside_servable_work(stack):
    watch = run_stack(stack)
    assert watch.instants > 0


# -- registered scenarios ----------------------------------------------------------


@pytest.mark.parametrize("mechanism", ["none", "static", "adaptbf"])
def test_no_slot_idles_in_quickstart(mechanism):
    """Every instant of ``quickstart``'s first 0.3 s: under ``static`` this
    covers the instant where ``ready_at`` runs ahead of the pool's
    deadline."""
    spec = REGISTRY.build("quickstart", mechanism=mechanism, duration=0.3)
    cluster = build(spec)
    watch = SlotWatch(cluster.env, cluster.osses)
    execute(cluster)
    watch.finish()
    assert watch.instants > 50
