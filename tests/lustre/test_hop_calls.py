"""The RPC path's calendar calls against the event-based hops they replaced.

Every engine-internal hop of an RPC — the network's delivery, reply and
finish, the OSS pool's wake/drain, RPC-overhead and token-deadline timers,
the OST's completion check and per-transfer hand-off, and the client
window's per-RPC completion — is a calendar call
(:meth:`~repro.sim.engine.Environment.call_later`, or
:meth:`~repro.sim.engine.Environment.call_soon` for a same-instant hop).
Each used to be an ``Event``/``Timeout`` with a callback.  The functions below are those
methods as they were, bodies copied verbatim (docstrings dropped), and a
stack built with them swapped in must be indistinguishable from the
shipped one: the same ``(time, priority, seq)`` dispatch stream, the same
``env.scheduled``, ``env.dispatched`` and ``env.now``, and the same
lifecycle stamps on every RPC.  That holds on hypothesis-built stacks:
FIFO and TBF with a mid-run re-rate, 1–3 OSTs, zero and non-zero latency
and RPC overhead, an OST crash with recovery and a network partition that
heals, and a mid-run change of one OST's capacity (the ``ost-degrade``
fault), under windowed streams and single ``submit`` calls.

The methods are swapped in with ``monkeypatch``, except the OST's: it now
keeps its flows in index-aligned lists, so the reference OST is a subclass
with its own slots for the transfer-id dicts it used to keep, and the
dict-based ``_advance`` and ``set_capacity`` beside the event-based
methods.

The OSS pool's steps now file, move and cancel their calls themselves, and
its ``_soon`` and ``_set_timer`` helpers are gone.  So that the reference
stack still runs the event-based wake path, every pool step that filed a
calendar entry through those helpers (``recover``, ``_on_work``,
``_on_wake``, ``_on_deadline``, ``_on_drain``, ``_wait``) is copied here
as it was when they existed, verbatim, and the two helpers are installed
on the class again, with ``raising=False``.
"""

import itertools
import math
from functools import partial
from typing import Callable, Dict, Optional

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
from repro.lustre.ost import _EPS_BYTES
from repro.lustre.rpc import Rpc
from repro.sim import Environment, Event, Timeout

_INF = float("inf")

# -- the event-based hops, verbatim --------------------------------------------


def net_submit(self, rpc: Rpc, oss: Oss) -> Event:
    env = self.env
    rpc.submitted = env.now
    rpc.completion = Event(env)
    rpc.client_done = client_done = Event(env)
    rpc.target_oss = oss
    self._rpcs_carried += 1

    if self._partitioned:
        self._held.append(rpc)
        self._rpcs_held += 1
    elif self.latency_s:
        env.timeout(self.latency_s, rpc).callbacks.append(self._deliver_cb)
    else:
        oss.receive(rpc)
    rpc.completion.callbacks.append(self._reply_cb)
    return client_done


def net_set_partitioned(self, partitioned: bool) -> int:
    partitioned = bool(partitioned)
    if partitioned == self._partitioned:
        return 0
    self._partitioned = partitioned
    if partitioned:
        return 0
    held, self._held = self._held, []
    env = self.env
    for rpc in held:
        if self.latency_s:
            env.timeout(self.latency_s, rpc).callbacks.append(
                self._deliver_cb
            )
        else:
            rpc.target_oss.receive(rpc)
    return len(held)


def net_deliver(self, event: Event) -> None:
    rpc = event._value
    rpc.target_oss.receive(rpc)


def net_reply(self, event: Event) -> None:
    rpc = event._value
    rpc.completion = None
    if self.latency_s:
        self.env.timeout(self.latency_s, rpc).callbacks.append(
            self._finish_cb
        )
    else:
        self._finish(event)


def net_finish(self, event: Event) -> None:
    rpc = event._value
    client_done, rpc.client_done = rpc.client_done, None
    client_done.succeed(rpc)


class OstUnavailable(Exception):
    """Raised into waiters of in-flight transfers when their OST crashes."""


def oss_crash(self) -> int:
    if self._offline:
        raise RuntimeError(f"{self.ost.name} is already offline")
    self._offline = True
    dropped = self.ost.fail_inflight(OstUnavailable(self.ost.name))
    self._rpcs_dropped += dropped
    return dropped


def oss_soon(self, callback: Callable[[Event], None]) -> None:
    self.env.timeout(0.0).callbacks.append(callback)


def oss_set_timer(self, at: float, delay: float) -> None:
    if self._timer is not None:
        self._timer.cancel()
        self._timer = None
    self._timer_at = at
    if at != _INF:
        timer = self.env.timeout(delay)
        timer.callbacks.append(self._on_deadline_cb)
        self._timer = timer


# The pool steps that filed their calls through ``_soon``/``_set_timer``,
# verbatim from when those helpers existed.


def oss_recover(self) -> None:
    if not self._offline:
        raise RuntimeError(f"{self.ost.name} is not offline")
    self._offline = False
    self._soon(self._on_recover_cb)


def oss_on_work(self) -> None:
    if not self._idle:
        return
    self._signalled = True
    if not self._wake_pending and not self._drain_pending:
        if self._waits:  # slots wait for a deadline: two levels
            self._wake_pending = True
            self._soon(self._on_wake_cb)
        else:  # every idle slot waits for a signal: one level
            self._drain_pending = True
            self._soon(self._on_drain_cb)


def oss_on_wake(self, _value: None) -> None:
    self._wake_pending = False
    if not self._drain_pending:
        self._drain_pending = True
        self._soon(self._on_drain_cb)


def oss_on_deadline(self, _value: None) -> None:
    self._timer = None
    waits = self._waits
    self._due += waits.pop(self._timer_at)
    at = min(waits, default=_INF)
    self._set_timer(at, at - self.env.now)
    if not self._drain_pending:
        self._drain_pending = True
        self._soon(self._on_drain_cb)


def oss_on_drain(self, _value: None) -> None:
    self._drain_pending = False
    if self._signalled:
        # A signal wakes every idle slot; their deadlines are re-armed
        # fresh by the first empty poll.
        self._signalled = False
        self._waits.clear()
        self._set_timer(_INF, _INF)
        polls = self._idle
    else:
        polls = self._due
    self._due = 0
    if self._offline:
        self._parked += polls
        self._idle -= polls
        return
    self._serve(polls)


def oss_wait(self, wake: float, slots: int) -> None:
    if wake == _INF:
        return
    env = self.env
    delay = wake - env.now
    if delay < 0.0:
        delay = 0.0
    at = env.now + delay
    waits = self._waits
    waits[at] = waits.get(at, 0) + slots
    if at < self._timer_at:
        self._set_timer(at, delay)


def oss_start(self, rpc: Rpc) -> None:
    rpc.dequeued = self.env.now
    if self.rpc_overhead_s:
        timeout = self.env.timeout(self.rpc_overhead_s, rpc)
        timeout.callbacks.append(self._after_overhead_cb)
    else:
        done = self.ost.transfer(rpc.size_bytes)
        done.callbacks.append(partial(self._on_transfer_cb, rpc))


def oss_after_overhead(self, event: Event) -> None:
    rpc = event._value
    if self._offline:
        # The crash landed during request-handling overhead, before the
        # bulk transfer ever started.
        self._requeue(rpc)
        return
    done = self.ost.transfer(rpc.size_bytes)
    done.callbacks.append(partial(self._on_transfer_cb, rpc))


def oss_on_transfer(self, rpc: Rpc, event: Event) -> None:
    if not event._ok:
        event.defused()
        self._requeue(rpc)
        return
    rpc.completed = self.env.now
    self._completed_rpcs += 1
    self.jobstats.record_completion(rpc)
    for callback in self._on_complete:
        callback(rpc)
    if rpc.completion is not None:
        rpc.completion.succeed(rpc)
    self._next()


class EventOst(Ost):
    """The OST with its event-based completion check and hand-off, and its
    flows in the dicts it kept before they became lists."""

    __slots__ = ("_remaining", "_sizes", "_ids", "_done_events", "_check_timer")

    def __init__(self, env: "Environment", name: str, capacity_bps: float) -> None:
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps}")
        self.env = env
        self.name = name
        self.capacity_bps = self.rated_capacity_bps = float(capacity_bps)
        self._remaining: Dict[int, float] = {}  # transfer id -> bytes left
        self._sizes: Dict[int, float] = {}  # transfer id -> original bytes
        self._done_events: Dict[int, Event] = {}
        self._ids = itertools.count()
        self._last = env.now
        self._check_timer: Optional[Timeout] = None
        self._on_check_cb = self._on_check  # cache the bound method
        self._bytes_served = 0.0

    def transfer(self, nbytes: float) -> Event:
        if nbytes <= 0:
            raise ValueError(f"transfer size must be positive, got {nbytes}")
        self._advance(self.env.now)
        tid = next(self._ids)
        self._remaining[tid] = float(nbytes)
        self._sizes[tid] = float(nbytes)
        done = Event(self.env)
        self._done_events[tid] = done
        self._reschedule()
        return done

    def set_capacity(self, capacity_bps: float) -> None:
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps}")
        self._advance(self.env.now)
        self.capacity_bps = float(capacity_bps)
        self._reschedule()

    def fail_inflight(self, exc: Optional[BaseException] = None) -> int:
        if exc is None:
            exc = OstUnavailable(self.name)
        self._advance(self.env.now)
        aborted = list(self._done_events.values())
        self._remaining.clear()
        self._sizes.clear()
        self._done_events.clear()
        for done in aborted:
            done.fail(exc)
        self._reschedule()
        return len(aborted)

    def _advance(self, now: float) -> None:
        elapsed = now - self._last
        self._last = now
        if elapsed <= 0 or not self._remaining:
            return
        share = self.capacity_bps * elapsed / len(self._remaining)
        for tid in self._remaining:
            self._remaining[tid] -= share

    def _reschedule(self) -> None:
        stale = self._check_timer
        if stale is not None and stale.callbacks is not None:
            stale.cancel()
        if not self._remaining:
            self._check_timer = None
            return
        min_left = min(self._remaining.values())
        per_flow = self.capacity_bps / len(self._remaining)
        delay = max(0.0, min_left) / per_flow
        timer = self.env.timeout(delay)
        timer.callbacks.append(self._on_check_cb)
        self._check_timer = timer

    def _on_check(self, _event: Event) -> None:
        now = self.env.now
        self._advance(now)
        finished = [
            tid for tid, left in self._remaining.items() if left <= _EPS_BYTES
        ]
        # Floating-point guard: the scheduled check targets the minimum, so
        # at least one transfer must be complete.
        if not finished:
            nearest = min(self._remaining.values())
            assert nearest <= 1e-3, f"completion check fired early ({nearest} B left)"
            finished = [
                tid
                for tid, left in self._remaining.items()
                if math.isclose(left, nearest, abs_tol=1e-3)
            ]
        for tid in finished:
            self._remaining.pop(tid)
            self._bytes_served += self._sizes.pop(tid)
            done = self._done_events.pop(tid)
            done.succeed(now)
        self._reschedule()


def io_submit(self, nbytes: Optional[int] = None, kind: RpcKind = RpcKind.WRITE):
    size = self.rpc_size if nbytes is None else nbytes
    target = self.layout.target_for_offset(self._offset)
    rpc = Rpc(
        job_id=self.job_id,
        client_id=self.client_id,
        size_bytes=size,
        kind=kind,
    )
    self.rpcs_issued += 1
    if kind is RpcKind.READ:
        self.bytes_read += size
    else:
        self.bytes_written += size
    self._offset += size
    return self.network.submit(rpc, target)


def io_write(self, total_bytes: int, kind: RpcKind = RpcKind.WRITE):
    if total_bytes <= 0:
        raise ValueError(f"total_bytes must be positive, got {total_bytes}")
    n_chunks = math.ceil(total_bytes / self.rpc_size)
    remaining = total_bytes
    window = _Window(self.env)
    on_done = window.on_done
    in_flight = 0
    issued = 0
    while issued < n_chunks or in_flight:
        while issued < n_chunks and in_flight < self.window:
            size = min(self.rpc_size, remaining)
            remaining -= size
            self.submit(size, kind=kind).callbacks.append(on_done)
            in_flight += 1
            issued += 1
        # Wait for the window to open; the value is the slots freed.
        in_flight -= yield window.wait()


def window_on_done(self, event: Event) -> None:
    wait = self._wait
    if event._ok:
        if wait is None:
            self._freed += 1
        else:
            self._wait = None
            wait.succeed(1)
    elif wait is not None:
        self._wait = None
        event.defused()
        wait.fail(event._value)


REFERENCE = [
    (Network, "submit", net_submit),
    (Network, "set_partitioned", net_set_partitioned),
    (Network, "_deliver", net_deliver),
    (Network, "_reply", net_reply),
    (Network, "_finish", net_finish),
    (Oss, "crash", oss_crash),
    (Oss, "recover", oss_recover),
    (Oss, "_on_work", oss_on_work),
    (Oss, "_on_wake", oss_on_wake),
    (Oss, "_on_deadline", oss_on_deadline),
    (Oss, "_on_drain", oss_on_drain),
    (Oss, "_wait", oss_wait),
    (Oss, "_start", oss_start),
    (Oss, "_after_overhead", oss_after_overhead),
    (Oss, "_on_transfer", oss_on_transfer),
    (IoHandle, "submit", io_submit),
    (IoHandle, "write", io_write),
    (_Window, "on_done", window_on_done),
]

#: Helpers the shipped OSS no longer defines, which the pool steps above
#: call: installed with ``raising=False``.
REMOVED = [
    (Oss, "_soon", oss_soon),
    (Oss, "_set_timer", oss_set_timer),
]


def run_both(scenario):
    """Run ``scenario(env, ost_type)`` on the shipped hops and on the
    event-based ones, require identical dispatch streams, counters, clocks
    and outcomes, and return the shipped run's outcome."""
    records = {}
    for name in ("shipped", "reference"):
        with pytest.MonkeyPatch.context() as mp:
            ost_type = Ost
            if name == "reference":
                for cls, attr, method in REFERENCE:
                    mp.setattr(cls, attr, method)
                for cls, attr, method in REMOVED:
                    mp.setattr(cls, attr, method, raising=False)
                ost_type = EventOst
            env = Environment()
            trace = []
            env.trace = lambda when, priority, seq, action: trace.append(
                (when, priority, seq)
            )
            outcome = scenario(env, ost_type)
            records[name] = (trace, env.scheduled, env.dispatched, env.now, outcome)
    shipped, reference = records["shipped"], records["reference"]
    assert shipped[0] == reference[0], "dispatch streams diverged"
    assert shipped[1:] == reference[1:]
    return shipped[-1]


# -- randomized stacks --------------------------------------------------------

MB = 1 << 20
RPC_SIZE = 256 * 1024

#: One client: job, window, start delay, its layout's first OST and stripe
#: count, and its (op, chunks, tail) ops; ``submit`` issues single RPCs.
clients = st.tuples(
    st.integers(0, 2),
    st.integers(1, 8),
    st.sampled_from([0.0, 0.0, 1e-3]),
    st.integers(0, 2),
    st.integers(1, 3),
    st.lists(
        st.tuples(
            st.sampled_from(["write", "read", "submit"]),
            st.integers(1, 30),
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
        "rpc_overhead_s": st.sampled_from([0.0, 50e-6]),
        "tbf": st.booleans(),
        "rates": st.lists(
            st.sampled_from([40.0, 150.0, 600.0]), min_size=3, max_size=3
        ),
        "rerate": st.tuples(
            st.integers(0, 2),
            st.sampled_from([1e-3, 0.01, 0.05]),
            st.sampled_from([20.0, 300.0, 2000.0]),
        ),
        # (OST index, crash time, outage) or None
        "crash": st.none()
        | st.tuples(
            st.integers(0, 2),
            st.sampled_from([2e-3, 0.01, 0.03]),
            st.sampled_from([1e-3, 0.02]),
        ),
        # (partition time, duration) or None
        "partition": st.none()
        | st.tuples(st.sampled_from([0.0, 1e-3, 0.02]), st.sampled_from([1e-3, 0.03])),
        # (OST index, time, capacity factor): one mid-run set_capacity
        "degrade": st.tuples(
            st.integers(0, 2),
            st.sampled_from([0.0, 1e-3, 0.01, 0.03]),
            st.sampled_from([0.1, 0.5, 3.0]),
        ),
        "clients": st.lists(clients, min_size=1, max_size=4),
    }
)


def _program(delay, ops):
    def program(io):
        if delay:
            yield io.sleep(delay)
        for op, chunks, tail in ops:
            nbytes = (chunks - 1) * RPC_SIZE + tail
            if op == "submit":
                for _ in range(min(chunks, 4)):
                    yield io.submit(tail)
            elif op == "read":
                yield from io.read(nbytes)
            else:
                yield from io.write(nbytes)

    return program


def simulate(stack):
    """A scenario for :func:`run_both`: build ``stack``, run it to the end,
    and return every RPC's lifecycle stamps and the fault counters."""

    def scenario(env, ost_type):
        n_osts = stack["n_osts"]
        osses = []
        for index in range(n_osts):
            ost = ost_type(env, f"ost{index}", capacity_bps=512 * MB)
            policy = TbfPolicy(env) if stack["tbf"] else FifoPolicy(env)
            osses.append(
                Oss(
                    env,
                    ost,
                    policy,
                    io_threads=stack["io_threads"],
                    rpc_overhead_s=stack["rpc_overhead_s"],
                )
            )
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
                        rpc.kind,
                        rpc.submitted,
                        rpc.arrived,
                        rpc.dequeued,
                        rpc.completed,
                    )
                )
            )
        faults = []
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
        if stack["crash"] is not None:
            index, at, outage = stack["crash"]
            victim = osses[index % n_osts]

            def crasher(env):
                yield env.timeout(at)
                faults.append(("dropped", env.now, victim.crash()))
                yield env.timeout(outage)
                victim.recover()
                faults.append(("recovered", env.now))

            env.process(crasher(env))
        index, at, factor = stack["degrade"]
        degraded = osses[index % n_osts].ost

        def degrader(env):
            yield env.timeout(at)
            degraded.set_capacity(degraded.capacity_bps * factor)

        env.process(degrader(env))
        if stack["partition"] is not None:
            at, duration = stack["partition"]

            def partitioner(env):
                yield env.timeout(at)
                net.set_partitioned(True)
                yield env.timeout(duration)
                faults.append(("released", env.now, net.set_partitioned(False)))

            env.process(partitioner(env))
        procs = []
        for job, window, delay, first, stripes, ops in stack["clients"]:
            targets = [osses[(first + k) % n_osts] for k in range(min(stripes, n_osts))]
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
        counters = [
            (oss.completed_rpcs, oss.rpcs_dropped, oss.rpcs_retried, oss.ost.bytes_served)
            for oss in osses
        ]
        issued = [proc.io.rpcs_issued for proc in procs]
        return served, faults, counters, issued, net.rpcs_carried, net.rpcs_held

    return scenario


@given(stack=stacks)
@settings(max_examples=150, deadline=None)
def test_randomized_stacks_match_the_event_hops(stack):
    served, _, _, issued, carried, _ = run_both(simulate(stack))
    assert len(served) == sum(issued) == carried


def test_crash_and_partition_together_match_the_event_hops():
    """A crash that aborts in-flight transfers (with RPC overhead, so some
    are pre-empted in request handling) while a partition holds new
    requests; both heal before the streams finish."""
    stack = {
        "n_osts": 2,
        "io_threads": 4,
        "latency_s": 100e-6,
        "rpc_overhead_s": 50e-6,
        "tbf": True,
        "rates": [600.0, 150.0, 40.0],
        "rerate": (1, 0.01, 2000.0),
        "crash": (0, 0.01, 0.02),
        "partition": (1e-3, 0.03),
        "degrade": (1, 0.01, 0.5),
        "clients": [
            (0, 8, 0.0, 0, 2, [("write", 30, RPC_SIZE)]),
            (1, 4, 1e-3, 1, 1, [("read", 20, 1000), ("submit", 3, 4096)]),
            (2, 2, 0.0, 0, 3, [("write", 12, 7)]),
        ],
    }
    served, faults, counters, issued, carried, held = run_both(simulate(stack))
    assert [fault[0] for fault in faults] == ["dropped", "recovered", "released"]
    assert faults[0][2] > 0  # the crash aborted in-flight transfers
    assert faults[2][2] == held > 0  # the partition held requests
    assert sum(retried for _, _, retried, _ in counters) >= faults[0][2]
    assert len(served) == sum(issued) == carried
