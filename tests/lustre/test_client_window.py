"""The client's RPC window against the loop it replaced.

:meth:`IoHandle.write` keeps up to ``window`` RPCs in flight and refills
the window as completions free slots.  :func:`reference_write` is that
method as it was when every resume built one ``env.any_of`` over the whole
window, copied verbatim.  Swapped in with ``monkeypatch``, it must be
indistinguishable from the shipped loop: the same ``(time, priority,
seq)`` dispatch stream and the same lifecycle timestamps on every RPC.
That holds across randomized stacks (window 1–8, partial tails, striping
over 1–3 OSTs, zero and non-zero latency, FIFO and TBF
with a mid-run re-rate, clients whose RPCs complete at the same instant)
and through the window's edge cases: a killed or interrupted process and
failed completions.
"""

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lustre import (
    ClientProcess,
    FifoPolicy,
    IoHandle,
    Network,
    Oss,
    Ost,
    RpcKind,
    StripeLayout,
    TbfPolicy,
    TbfRule,
)
from repro.lustre.client import _Window
from repro.sim import Environment, Event, Interrupt

MB = 1 << 20


def reference_write(self, total_bytes: int, kind: RpcKind = RpcKind.WRITE):
    """``IoHandle.write`` with one ``AnyOf`` per resume (the old loop, verbatim)."""
    if total_bytes <= 0:
        raise ValueError(f"total_bytes must be positive, got {total_bytes}")
    n_chunks = math.ceil(total_bytes / self.rpc_size)
    remaining = total_bytes
    in_flight = []
    issued = 0
    while issued < n_chunks or in_flight:
        while issued < n_chunks and len(in_flight) < self.window:
            size = min(self.rpc_size, remaining)
            remaining -= size
            in_flight.append(self.submit(size, kind=kind))
            issued += 1
        # Wait for the window to open (any completion frees a slot).
        done = yield self.env.any_of(in_flight)
        in_flight = [ev for ev in in_flight if ev not in done]


def run_both(scenario):
    """Run ``scenario(env, monkeypatch)`` under the shipped and the
    reference write loop, require identical dispatch streams and outcomes,
    and return the shipped loop's outcome."""
    records = {}
    for name, write in (("shipped", IoHandle.write), ("reference", reference_write)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(IoHandle, "write", write)
            env = Environment()
            trace = []
            env.trace = lambda when, priority, seq, event: trace.append(
                (when, priority, seq)
            )
            outcome = scenario(env, mp)
            records[name] = (trace, outcome, env.scheduled, env.now)
    shipped, reference = records["shipped"], records["reference"]
    assert shipped[0] == reference[0], "dispatch streams diverged"
    assert shipped[1:] == reference[1:]
    return shipped[1]


class Boom(Exception):
    """A failure injected into a client completion."""


class Scripted:
    """A completion of the shipped loop that the test triggers like an
    event: ``succeed`` runs the stream's reply callback, as the network's
    last hop does, and ``fail`` pushes a call of its window's
    ``on_failed``.  Each pushes one entry, where the reference loop's
    event would be pushed."""

    def __init__(self, env, on_reply):
        self.env = env
        self.on_reply = on_reply  # the stream's ``_Window.on_reply``

    def succeed(self):
        self.on_reply(None)

    def fail(self, exc):
        self.env.call_later(0.0, self.on_reply.__self__.on_failed, exc)


def scripted(mp, events):
    """Hand out completions the test triggers: plain events from
    ``IoHandle.submit``, which the reference loop calls, and
    :class:`Scripted` ones from ``IoHandle._send``, the per-RPC seam of
    the shipped loop."""

    def submit(self, nbytes=None, kind=RpcKind.WRITE):
        event = self.env.event()
        events.append(event)
        return event

    def send(self, size, kind, on_reply):
        events.append(Scripted(self.env, on_reply))

    mp.setattr(IoHandle, "submit", submit)
    mp.setattr(IoHandle, "_send", send)


# -- randomized stacks --------------------------------------------------------

RPC_SIZE = 256 * 1024

#: One client: job, window, start delay, its layout's first OST and stripe
#: count, how many identical copies run, and its (kind, chunks, tail) ops.
clients = st.tuples(
    st.integers(0, 2),
    st.integers(1, 8),
    st.sampled_from([0.0, 0.0, 1e-3]),
    st.integers(0, 2),
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(
        st.tuples(
            st.sampled_from([RpcKind.WRITE, RpcKind.READ]),
            st.integers(1, 40),
            st.integers(1, RPC_SIZE),
        ),
        min_size=1,
        max_size=2,
    ),
)

stacks = st.fixed_dictionaries(
    {
        "n_osts": st.integers(1, 3),
        "io_threads": st.sampled_from([1, 2, 8]),
        "latency_s": st.sampled_from([0.0, 100e-6]),
        "tbf": st.booleans(),
        "rates": st.lists(
            st.sampled_from([40.0, 150.0, 600.0]), min_size=3, max_size=3
        ),
        "rerate": st.tuples(
            st.integers(0, 2),
            st.sampled_from([1e-3, 0.01, 0.05]),
            st.sampled_from([20.0, 300.0, 2000.0]),
        ),
        "clients": st.lists(clients, min_size=1, max_size=4),
    }
)


def _program(delay, ops):
    def program(io):
        if delay:
            yield io.sleep(delay)
        for kind, chunks, tail in ops:
            nbytes = (chunks - 1) * RPC_SIZE + tail
            if kind is RpcKind.READ:
                yield from io.read(nbytes)
            else:
                yield from io.write(nbytes)

    return program


def simulate(stack):
    """A scenario for :func:`run_both`: build ``stack``, run it to the end."""

    def scenario(env, mp):
        n_osts = stack["n_osts"]
        osses = []
        for index in range(n_osts):
            ost = Ost(env, f"ost{index}", capacity_bps=512 * MB)
            policy = TbfPolicy(env) if stack["tbf"] else FifoPolicy(env)
            osses.append(Oss(env, ost, policy, io_threads=stack["io_threads"]))
        net = Network(env, latency_s=stack["latency_s"])
        served = []
        for index, oss in enumerate(osses):
            oss.on_complete(
                lambda rpc, index=index: served.append(
                    (
                        index,
                        rpc.job_id,
                        rpc.client_id,
                        rpc.size_bytes,
                        rpc.submitted,
                        rpc.arrived,
                        rpc.dequeued,
                        rpc.completed,
                    )
                )
            )
        if stack["tbf"]:
            for job, rate in enumerate(stack["rates"]):
                for oss in osses:
                    oss.policy.start_rule(TbfRule(f"r{job}", f"job{job}", rate=rate))
            job, at, rate = stack["rerate"]

            def operator(env):
                yield env.timeout(at)
                for oss in osses:
                    oss.policy.change_rate(f"r{job}", rate)

            env.process(operator(env))
        procs = []
        for job, window, delay, first, stripes, copies, ops in stack["clients"]:
            targets = [osses[(first + k) % n_osts] for k in range(min(stripes, n_osts))]
            for _ in range(copies):
                procs.append(
                    ClientProcess(
                        env,
                        net,
                        targets[0],
                        f"job{job}",
                        f"c{len(procs)}",
                        _program(delay, ops),
                        rpc_size=RPC_SIZE,
                        window=window,
                        layout=StripeLayout(targets, stripe_size=RPC_SIZE),
                    )
                )
        env.run()
        assert all(proc.finished for proc in procs)
        issued = [
            (proc.io.rpcs_issued, proc.io.bytes_written, proc.io.bytes_read)
            for proc in procs
        ]
        return served, issued

    return scenario


@given(stack=stacks)
@settings(max_examples=150, deadline=None)
def test_randomized_stacks_match_the_reference_loop(stack):
    served, issued = run_both(simulate(stack))
    assert len(served) == sum(count for count, _, _ in issued)


def test_same_instant_completions_match_the_reference_loop():
    """Copies of one client on one FIFO OST: every window's RPCs start and
    finish together, so completions land between a wait's push and its
    resume and are carried to the next wait."""
    stack = {
        "n_osts": 1,
        "io_threads": 8,
        "latency_s": 0.0,
        "tbf": False,
        "rates": [],
        "rerate": None,
        "clients": [(0, 4, 0.0, 0, 1, 3, [(RpcKind.WRITE, 17, 1000)])],
    }
    served, _ = run_both(simulate(stack))
    completed = [row[-1] for row in served]
    assert len(set(completed)) < len(completed)


# -- edge cases ------------------------------------------------------------------


def _one_client(env, program, window=4, latency_s=100e-6):
    ost = Ost(env, "ost0", capacity_bps=100 * MB)
    oss = Oss(env, ost, FifoPolicy(env), io_threads=8)
    net = Network(env, latency_s=latency_s)
    return oss, ClientProcess(env, net, oss, "job0", "c0", program, window=window)


def test_window_of_one():
    def scenario(env, mp):
        def program(io):
            yield from io.write(7 * MB + 3)

        oss, client = _one_client(env, program, window=1)
        env.run()
        return client.finished, client.io.rpcs_issued, oss.completed_rpcs

    assert run_both(scenario) == (True, 8, 8)


def test_kill_mid_write_pushes_the_same_events_and_raises_nothing():
    def scenario(env, mp):
        def program(io):
            yield from io.write(40 * MB)

        oss, client = _one_client(env, program)

        def killer(env):
            yield env.timeout(0.1)
            client.process.kill()

        env.process(killer(env))
        env.run()
        return client.finished, client.io.rpcs_issued, oss.completed_rpcs

    finished, issued, completed = run_both(scenario)
    assert finished and 0 < issued < 40
    # The window's RPCs still complete after the kill, with no waiter.
    assert completed == issued


def test_interrupt_mid_write_raises_at_the_programs_yield():
    def scenario(env, mp):
        caught = []

        def program(io):
            try:
                yield from io.write(40 * MB)
            except Interrupt as exc:
                caught.append((io.now, exc.cause))
            yield io.sleep(0.05)
            yield from io.write(2 * MB)

        oss, client = _one_client(env, program)

        def interrupter(env):
            yield env.timeout(0.1)
            client.process.interrupt("stop")

        env.process(interrupter(env))
        env.run()
        return caught, client.finished, client.io.rpcs_issued, oss.completed_rpcs

    caught, finished, issued, completed = run_both(scenario)
    assert caught == [(0.1, "stop")]
    assert finished and completed == issued


def test_failed_completion_while_waiting_reaches_the_program():
    def scenario(env, mp):
        events, caught = [], []
        scripted(mp, events)

        def program(io):
            try:
                yield from io.write(4 * MB)
            except Boom as exc:
                caught.append((io.now, exc.args))

        _, client = _one_client(env, program, window=2)

        def driver(env):
            yield env.timeout(1.0)
            events[0].succeed()
            yield env.timeout(1.0)
            events[1].fail(Boom("disk"))

        env.process(driver(env))
        env.run()
        return caught, len(events), client.finished

    assert run_both(scenario) == ([(2.0, ("disk",))], 3, True)


def test_failed_completion_with_no_wait_pending_escapes_run():
    """A completion that fails between a wait's push and its resume is
    left for ``env.run`` to raise, never swallowed."""

    def scenario(env, mp):
        events = []
        scripted(mp, events)

        def program(io):
            yield from io.write(4 * MB)

        _one_client(env, program, window=2)

        def driver(env):
            yield env.timeout(1.0)
            events[0].succeed()
            events[1].fail(Boom("disk"))

        env.process(driver(env))
        with pytest.raises(Boom, match="disk"):
            env.run()
        return env.now, len(events)

    assert run_both(scenario) == (1.0, 2)


def test_failed_completion_after_kill_escapes_run():
    """A killed stream's pending wait fails with no waiter, so the run
    raises at that wait's dispatch."""

    def scenario(env, mp):
        events = []
        scripted(mp, events)

        def program(io):
            yield from io.write(4 * MB)

        _, client = _one_client(env, program, window=2)

        def driver(env):
            yield env.timeout(1.0)
            client.process.kill()
            yield env.timeout(1.0)
            events[0].fail(Boom("disk"))
            events[1].succeed()

        env.process(driver(env))
        with pytest.raises(Boom, match="disk"):
            env.run()
        return env.now, client.finished

    assert run_both(scenario) == (2.0, True)


def test_carried_completions_refill_one_resume_at_a_time():
    """Two completions at one instant: the wait fires on the first and
    frees one slot; the second is carried, so the next wait fires at once
    and the two refills land in separate resumes."""

    def scenario(env, mp):
        events, sizes = [], []
        scripted(mp, events)

        def program(io):
            yield from io.write(4 * MB)

        _, client = _one_client(env, program, window=2)

        def driver(env):
            yield env.timeout(1.0)
            events[0].succeed()
            events[1].succeed()
            yield env.timeout(1.0)
            sizes.append(len(events))
            events[2].succeed()
            events[3].succeed()

        env.process(driver(env))
        env.run()
        return sizes, len(events), client.finished

    assert run_both(scenario) == ([4], 4, True)


def test_finished_streams_are_not_cyclic_garbage():
    """Like the served-RPC check in ``test_network_oss_edges``: a finished
    write stream's completion counter and wait events are freed by their
    refcounts, not left for the cyclic collector."""
    from repro.cluster.builder import build
    from repro.cluster.experiment import execute
    from repro.scenarios import REGISTRY

    def program(io):
        yield from io.write(20 * MB)
        yield from io.read(3 * MB)

    gc.collect()
    gc.disable()
    try:
        env = Environment()
        oss, client = _one_client(env, program)  # kept alive
        env.run(until=0.05)
        assert any(type(obj) is _Window for obj in gc.get_objects())  # mid-write
        env.run()
        cluster = build(REGISTRY.build("quickstart"))  # kept alive
        execute(cluster)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [
            obj
            for obj in gc.garbage
            if type(obj) is _Window
            or (type(obj) is Event and type(obj._value) is int)
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert client.finished and oss.completed_rpcs == 23
    assert cluster.osses[0].completed_rpcs > 0
    assert leaked == []
