"""Property-based tests (hypothesis) for the TBF policy and token bucket.

Invariants pinned (DESIGN.md §6):

* **rate compliance** — a queue never serves more than ``depth + rate·T``
  RPCs over any window starting from a full bucket;
* **the envelope under rule churn** — within one rule's lifetime, the
  token-backed services in any window between two of them number at most
  ``depth`` plus the rate integrated over the window, across re-rates,
  rate 0, and stop-then-start;
* **the envelope through a crash** — on a one-OST stack, the same bound
  holds when an OST crash aborts in-flight transfers and the OSS requeues
  them, their second service included;
* **conservation** — every enqueued RPC is either served exactly once or
  still queued (drained by stopping every rule and polling the fallback
  queue empty); nothing is lost or duplicated through rule churn;
* **FIFO per job** — a job's RPCs are served in arrival order regardless of
  what happens to other queues or rules;
* **bucket monotonicity** — token level never exceeds depth and never goes
  negative.

The policy reads only ``env.now``, so it runs here on a settable clock,
except in the crash tests, which drive it through a simulated OSS.
"""

import math
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st
from simstack import build_stack

from repro.lustre import ClientProcess
from repro.lustre.bucket import TokenBucket
from repro.lustre.nrs import TbfPolicy
from repro.lustre.rpc import Rpc
from repro.lustre.tbf import TbfRule
from repro.sim import Environment

JOBS = ["a", "b", "c"]


def ops_strategy():
    """A random schedule of policy operations with increasing time."""
    op = st.one_of(
        st.tuples(st.just("enqueue"), st.sampled_from(JOBS)),
        st.tuples(st.just("poll"), st.none()),
        st.tuples(st.just("rerate"), st.sampled_from(JOBS)),
        st.tuples(st.just("advance"), st.floats(0.001, 0.5)),
    )
    return st.lists(op, min_size=1, max_size=80)


def build_policy(rates):
    policy = TbfPolicy(SimpleNamespace(now=0.0))
    for job, rate in rates.items():
        policy.start_rule(TbfRule(f"r_{job}", job, rate=rate, depth=3))
    return policy


def drain(policy):
    """Stop every rule, then poll the re-filed backlog out of the fallback
    queue until ``poll`` returns ``(None, inf)``."""
    for name in policy.rule_names():
        policy.stop_rule(name)
    out = []
    while True:
        rpc, wake = policy.poll()
        if rpc is None:
            assert wake == math.inf
            return out
        out.append(rpc)


@given(
    ops=ops_strategy(),
    rates=st.fixed_dictionaries(
        {j: st.floats(min_value=1.0, max_value=100.0) for j in JOBS}
    ),
)
@settings(max_examples=120, deadline=None)
def test_conservation_and_fifo(ops, rates):
    policy = build_policy(rates)
    clock = policy.env
    enqueued = {j: [] for j in JOBS}
    served = {j: [] for j in JOBS}
    for kind, arg in ops:
        if kind == "enqueue":
            rpc = Rpc(job_id=arg, client_id="c", size_bytes=1)
            enqueued[arg].append(rpc)
            policy.enqueue(rpc)
        elif kind == "poll":
            rpc, _ = policy.poll()
            if rpc is not None:
                served[rpc.job_id].append(rpc)
        elif kind == "rerate":
            policy.change_rate(f"r_{arg}", rates[arg] * 2)
        else:  # advance
            clock.now += arg

    # Every rule lives to the end, so each job's backlog is still in its
    # own queue: served, then drained, is the job's arrival order exactly
    # (conservation and FIFO per job in one check).
    for rpc in drain(policy):
        served[rpc.job_id].append(rpc)
    assert served == enqueued


@given(
    rate=st.floats(min_value=1.0, max_value=200.0),
    horizon=st.floats(min_value=0.1, max_value=5.0),
    step=st.floats(min_value=0.001, max_value=0.05),
)
@settings(max_examples=100, deadline=None)
def test_rate_compliance_under_constant_pressure(rate, horizon, step):
    """Served count over [0,T] <= depth + rate*T, >= rate*T - 1 (work cons.)."""
    depth = 3
    policy = TbfPolicy(SimpleNamespace(now=0.0))
    policy.start_rule(TbfRule("r", "job", rate=rate, depth=depth))
    for _ in range(int(depth + rate * horizon) + 10):
        policy.enqueue(Rpc(job_id="job", client_id="c", size_bytes=1))
    served = 0
    t = 0.0
    while t <= horizon:
        policy.env.now = t
        while policy.poll()[0] is not None:
            served += 1
        t += step
    assert served <= depth + rate * horizon + 1e-6
    # Work conservation at the sampling resolution: no token is wasted
    # while a backlog exists — except by design when the poll interval lets
    # the bucket overflow.  With a fractional residue of up to 1 token left
    # after each harvest, overflow starts once rate*step > depth - 1, so the
    # guaranteed harvest rate is min(rate, (depth-1)/step): TBF's
    # burst-bounding property, not a bug.
    effective_rate = min(rate, (depth - 1) / step)
    # Slack of 2: one token potentially in flight at the final sample plus
    # the fractional token never matured by the end of the window.
    assert served >= effective_rate * (horizon - step) - 2


def churn_strategy():
    """Random schedules of enqueue, poll, advance, re-rate and restart."""
    rate = st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=200.0))
    op = st.one_of(
        st.tuples(st.just("enqueue"), st.sampled_from(JOBS), st.integers(1, 6)),
        st.tuples(st.just("poll"), st.integers(1, 8)),
        st.tuples(st.just("advance"), st.floats(min_value=1e-4, max_value=2.0)),
        st.tuples(st.just("rerate"), st.sampled_from(JOBS), rate),
        st.tuples(st.just("restart"), st.sampled_from(JOBS), rate),
    )
    return st.lists(op, min_size=1, max_size=120)


def integrate(rates, start, end):
    """``∫ rate dt`` over ``[start, end]`` of a step function given as
    ``(since, rate)`` pairs in time order."""
    total = 0.0
    for k, (since, rate) in enumerate(rates):
        until = rates[k + 1][0] if k + 1 < len(rates) else math.inf
        overlap = min(until, end) - max(since, start)
        if overlap > 0:
            total += rate * overlap
    return total


@given(
    ops=churn_strategy(),
    depths=st.fixed_dictionaries(
        {j: st.floats(min_value=1.0, max_value=6.0) for j in JOBS}
    ),
)
@settings(max_examples=200, deadline=None)
def test_envelope_holds_under_rule_churn(ops, depths):
    """Within one rule's lifetime, for every window [s, t] between two of
    its token-backed services, the services number at most ``depth`` plus
    the rate integrated over [s, t] (1e-6 of slack covers the bucket's
    1e-9-per-token tolerance)."""
    policy = TbfPolicy(SimpleNamespace(now=0.0))
    clock = policy.env
    lives = []  # (depth, [(since, rate)], [service times]) per rule lifetime
    live = {}  # job → index of its rule's lifetime in `lives`

    def start(job, rate):
        policy.start_rule(TbfRule(f"r_{job}", job, rate=rate, depth=depths[job]))
        live[job] = len(lives)
        lives.append((depths[job], [(clock.now, rate)], []))

    for job in JOBS:
        start(job, 10.0)
    for op in ops:
        kind = op[0]
        if kind == "enqueue":
            for _ in range(op[2]):
                policy.enqueue(Rpc(job_id=op[1], client_id="c", size_bytes=1))
        elif kind == "poll":
            for _ in range(op[1]):
                rpc, _ = policy.poll()
                if rpc is None:
                    break
                if not rpc.via_fallback:
                    lives[live[rpc.job_id]][2].append(clock.now)
        elif kind == "advance":
            clock.now += op[1]
        elif kind == "rerate":
            policy.change_rate(f"r_{op[1]}", op[2])
            lives[live[op[1]]][1].append((clock.now, op[2]))
        else:  # restart: a fresh lifetime with a full bucket
            policy.stop_rule(f"r_{op[1]}")
            start(op[1], op[2])

    for depth, rates, times in lives:
        for i, begin in enumerate(times):
            for j in range(i, len(times)):
                served = j - i + 1
                assert served <= depth + integrate(rates, begin, times[j]) + 1e-6


class LoggedTbf(TbfPolicy):
    """A TBF policy that logs each token-backed service as ``(rpc_id, t)``
    per job."""

    def __init__(self, env):
        super().__init__(env)
        self.services = {}

    def poll(self):
        rpc, wake = super().poll()
        if rpc is not None and not rpc.via_fallback:
            self.services.setdefault(rpc.job_id, []).append(
                (rpc.rpc_id, self.env.now)
            )
        return rpc, wake


def run_crashed_stack(io_threads, rates, depth, crash_at, outage):
    """One OST behind a TBF OSS, one rule per job and two writers per job;
    the OST crashes at ``crash_at`` and recovers ``outage`` later.  Returns
    the policy's service log, the transfers the crash aborted and the
    RPCs the OSS requeued."""
    env = Environment()
    _, policy, oss, net = build_stack(env, LoggedTbf, io_threads=io_threads)
    for job, rate in rates.items():
        policy.start_rule(TbfRule(f"r_{job}", job, rate=rate, depth=depth))

    def writer(io):
        yield from io.write(24 * io.rpc_size)

    clients = [
        ClientProcess(env, net, oss, job, f"{job}.{k}", writer, rpc_size=64 * 1024)
        for job in rates
        for k in range(2)
    ]
    dropped = []

    def crasher(env):
        yield env.timeout(crash_at)
        dropped.append(oss.crash())
        yield env.timeout(outage)
        oss.recover()

    env.process(crasher(env))
    env.run()
    assert all(client.finished for client in clients)
    return policy.services, dropped[0], oss.rpcs_retried


def assert_envelope(services, rates, depth):
    """For every window between two of a job's token-backed services, the
    services in it number at most ``depth + rate × window``."""
    for job, log in services.items():
        times = [t for _, t in log]
        for i, begin in enumerate(times):
            for j in range(i, len(times)):
                served = j - i + 1
                assert served <= depth + rates[job] * (times[j] - begin) + 1e-6, (
                    job,
                    begin,
                    times[j],
                    served,
                )


@given(
    io_threads=st.sampled_from([1, 2, 8]),
    rates=st.fixed_dictionaries(
        {j: st.sampled_from([40.0, 150.0, 600.0, 5000.0]) for j in JOBS}
    ),
    depth=st.sampled_from([1.0, 3.0, 8.0]),
    crash_at=st.sampled_from([1e-3, 2e-3, 0.0101, 0.05]),
    outage=st.sampled_from([1e-3, 0.02, 0.1]),
)
@example(
    io_threads=8,
    rates={"a": 40.0, "b": 150.0, "c": 600.0},
    depth=3.0,
    crash_at=2e-3,
    outage=0.02,
)
@settings(max_examples=30, deadline=None)
def test_envelope_holds_through_a_crash_requeue(
    io_threads, rates, depth, crash_at, outage
):
    """Every aborted transfer is requeued on its job's rule queue and
    served a second time, under a second token, inside the envelope."""
    services, dropped, retried = run_crashed_stack(
        io_threads, rates, depth, crash_at, outage
    )
    served_twice = sum(
        len(log) - len({rpc_id for rpc_id, _ in log}) for log in services.values()
    )
    assert served_twice == dropped == retried
    assert_envelope(services, rates, depth)


def test_the_crash_aborts_transfers_in_flight():
    """The example above does exercise the requeue: the crash at 2 ms
    lands while all 8 slots transfer."""
    _, dropped, _ = run_crashed_stack(
        8, {"a": 40.0, "b": 150.0, "c": 600.0}, 3.0, 2e-3, 0.02
    )
    assert dropped == 8


@given(
    rate=st.floats(min_value=0.0, max_value=1000.0),
    depth=st.floats(min_value=0.5, max_value=64.0),
    times=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=50
    ),
)
@settings(max_examples=150, deadline=None)
def test_bucket_bounds(rate, depth, times):
    bucket = TokenBucket(rate=rate, depth=depth, tokens=0.0, now=0.0)
    for t in sorted(times):
        level = bucket.tokens_at(t)
        assert 0.0 <= level <= depth + 1e-9
        bucket.try_consume(t)  # whatever happens, bounds must hold
        assert 0.0 <= bucket.tokens_at(t) <= depth + 1e-9


@given(
    ops=ops_strategy(),
)
@settings(max_examples=80, deadline=None)
def test_rule_churn_never_loses_rpcs(ops):
    """Stopping/restarting rules mid-stream conserves every RPC."""
    policy = build_policy({j: 10.0 for j in JOBS})
    clock = policy.env
    enqueued = []
    served = []
    for i, (kind, arg) in enumerate(ops):
        if kind == "enqueue":
            rpc = Rpc(job_id=arg, client_id="c", size_bytes=1)
            enqueued.append(rpc)
            policy.enqueue(rpc)
        elif kind == "poll":
            rpc, _ = policy.poll()
            if rpc is not None:
                served.append(rpc)
        elif kind == "rerate":
            # Every third rerate becomes a stop/start churn instead.
            name = f"r_{arg}"
            if i % 3 == 0 and name in policy.rule_names():
                policy.stop_rule(name)
                policy.start_rule(TbfRule(name, arg, rate=10.0, depth=3))
            elif name in policy.rule_names():
                policy.change_rate(name, 20.0)
        else:
            clock.now += arg
    served += drain(policy)
    # Each RPC comes out exactly once: none lost, none duplicated.
    assert len(served) == len(enqueued)
    assert set(map(id, served)) == set(map(id, enqueued))
