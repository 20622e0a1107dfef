"""The TBF poll and the token bucket against the ``min``/``max`` they replaced.

:meth:`~repro.lustre.nrs.TbfPolicy.poll` and
:class:`~repro.lustre.bucket.TokenBucket`'s ``tokens_at``, ``ready_at`` and
``try_consume`` write ``min(depth, accrued)`` and ``max(0.0, taken)`` as
the comparisons those builtins make, so each picks the same float, NaN and
``-0.0`` included.  The functions below are those methods as they were with
the builtins, bodies copied verbatim (docstrings dropped).  Swapped in with
``monkeypatch``, they must be indistinguishable from the shipped ones on
random schedules of enqueues, polls, clock advances, re-rates and rule
restarts, with rate 0, an infinite rate and depths below one token among
them: the same ``(rpc, wake)`` from every poll, and bit for bit the same
bucket levels and timestamps, heap contents and queue versions after every
step.

An infinite rate is what tells the two forms apart: at ``now == last`` its
accrual is ``inf * 0.0``, a NaN, which ``min(depth, nan)`` replaces with the
depth, and so does ``if not nan < depth``, but ``if nan > depth`` does not.
"""

import math
import struct
from heapq import heappop, heapreplace
from types import SimpleNamespace
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lustre.bucket import _EPS, _INF, TokenBucket, _bad_time
from repro.lustre.nrs import TbfPolicy
from repro.lustre.rpc import Rpc
from repro.lustre.tbf import TbfRule

# -- the builtin forms, verbatim -----------------------------------------------


def reference_poll(self) -> Tuple[Optional[Rpc], float]:
    now = self.env.now
    heap = self._heap
    by_job = self._by_job
    while heap:
        deadline, _rank, seq, job_id = heap[0]
        queue = by_job.get(job_id)
        if queue is None or seq != queue.version or not queue.items:
            heappop(heap)  # stale entry
            continue
        # The bucket's ready_at(now) and try_consume(now), inline with
        # their expressions: one bucket is read per heap step.
        bucket = queue.bucket
        depth = bucket.depth
        rate = bucket._rate
        if 1 > depth + _EPS:
            ready = _INF  # the bucket can never hold a token
        else:
            last = bucket._last
            if not last <= now < _INF:
                raise _bad_time(now, last)
            have = min(depth, bucket._tokens + rate * (now - last))
            if have + _EPS >= 1:
                ready = now
            elif rate == 0.0:
                ready = _INF
            else:
                ready = now + (1 - have) / rate
        if ready > deadline + 1e-12:
            rpc = None  # the deadline lapsed: re-file at the ready time
        elif ready <= now:
            # Serve: take the token, and re-file the queue at its next
            # ready time if it still holds RPCs.
            if not have + _EPS >= 1:
                raise RuntimeError(
                    f"TBF queue of {job_id!r}: deadline matured but "
                    "token missing"
                )
            bucket._tokens = tokens = max(0.0, have - 1)
            bucket._last = now
            items = queue.items
            rpc = items.popleft()
            if not items:
                heappop(heap)
                return rpc, now
            # ready_at(now) just after the take: no time has passed.
            have = min(depth, tokens + rate * 0.0)
            if have + _EPS >= 1:
                ready = now
            elif rate == 0.0:
                ready = _INF
            else:
                ready = now + (1 - have) / rate
        else:
            # Nearest token deadline is in the future.
            if not self._fallback:
                return None, ready
            break
        # _push, inline: the entry's pop and its re-push are one
        # heapreplace (every entry's seq differs, so the order in which
        # entries surface is the same).
        queue.version = seq = next(self._seq)
        if ready == _INF:
            heappop(heap)
        else:
            heapreplace(heap, (ready, queue.rule.rank, seq, job_id))
        if rpc is not None:
            return rpc, now

    if self._fallback:
        rpc = self._fallback.popleft()
        rpc.via_fallback = True
        return rpc, now
    return None, _INF


def reference_tokens_at(self, now: float) -> float:
    if not self._last <= now < _INF:
        raise _bad_time(now, self._last)
    return min(self.depth, self._tokens + self._rate * (now - self._last))


def reference_ready_at(self, now: float, n: int = 1) -> float:
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if n > self.depth + _EPS:
        # The bucket can never simultaneously hold this many tokens.
        return math.inf
    if not self._last <= now < _INF:
        raise _bad_time(now, self._last)
    have = min(self.depth, self._tokens + self._rate * (now - self._last))
    if have + _EPS >= n:
        return now
    if self._rate == 0.0:
        return math.inf
    return now + (n - have) / self._rate


def reference_try_consume(self, now: float, n: int = 1) -> bool:
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not self._last <= now < _INF:
        raise _bad_time(now, self._last)
    tokens = min(self.depth, self._tokens + self._rate * (now - self._last))
    self._last = now
    if tokens + _EPS >= n:
        self._tokens = max(0.0, tokens - n)
        return True
    self._tokens = tokens
    return False


REFERENCE = [
    (TbfPolicy, "poll", reference_poll),
    (TokenBucket, "tokens_at", reference_tokens_at),
    (TokenBucket, "ready_at", reference_ready_at),
    (TokenBucket, "try_consume", reference_try_consume),
]


def bits(value: float) -> bytes:
    """A float's bit pattern: tells NaN from NaN and -0.0 from 0.0."""
    return struct.pack("<d", value)


def run_both(play):
    """Run ``play()`` with the shipped methods and with the builtin forms;
    require the same record, and return it."""
    records = []
    for reference in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if reference:
                for cls, attr, method in REFERENCE:
                    mp.setattr(cls, attr, method)
            records.append(play())
    shipped, builtin = records
    assert shipped == builtin
    return shipped


# -- the poll --------------------------------------------------------------------

JOBS = ["a", "b", "c"]
RATES = st.sampled_from([0.0, 0.5, 3.0, 40.0, _INF]) | st.floats(0.01, 1e3)
DEPTHS = st.sampled_from([0.5, 1.0, 1.0 - 1e-10, 3.0]) | st.floats(0.1, 5.0)
RANKS = st.integers(0, 1)


def _steps():
    return st.lists(
        st.one_of(
            st.tuples(st.just("enqueue"), st.sampled_from(JOBS + ["unruled"])),
            st.tuples(st.just("poll")),
            st.tuples(
                st.just("advance"),
                st.sampled_from([0.0, 1e-12, 1e-3]) | st.floats(0.0, 0.5),
            ),
            st.tuples(st.just("rerate"), st.sampled_from(JOBS), RATES, RANKS),
            st.tuples(
                st.just("restart"), st.sampled_from(JOBS), RATES, DEPTHS, RANKS
            ),
        ),
        min_size=1,
        max_size=60,
    )


def snapshot(policy: TbfPolicy):
    """Every float the poll reads or writes, as bits, and the heap and
    queue order it leaves."""
    queues = [
        (
            job,
            queue.version,
            bits(queue.bucket._tokens),
            bits(queue.bucket._last),
            bits(queue.bucket._rate),
            [rpc.client_id for rpc in queue.items],
        )
        for job, queue in sorted(policy._by_job.items())
    ]
    heap = [(bits(deadline), rank, seq, job) for deadline, rank, seq, job in policy._heap]
    return "state", queues, heap, [rpc.client_id for rpc in policy._fallback]


def polled(policy: TbfPolicy):
    """One poll's ``(rpc, wake)``, with the wake as bits."""
    rpc, wake = policy.poll()
    return "poll", None if rpc is None else rpc.client_id, bits(wake)


def play_schedule(rules, steps):
    """Build a policy with ``rules``, run ``steps`` on it and record each
    poll's result and the state after every step."""

    def play():
        policy = TbfPolicy(SimpleNamespace(now=0.0))
        for job, (rate, depth, rank) in zip(JOBS, rules):
            policy.start_rule(TbfRule(f"r_{job}", job, rate, depth, rank))
        record = []
        for n, step in enumerate(steps):
            kind = step[0]
            if kind == "enqueue":
                policy.enqueue(Rpc(step[1], f"rpc{n}", 1 << 20))
            elif kind == "poll":
                record.append(polled(policy))
            elif kind == "advance":
                policy.env.now += step[1]
            elif kind == "rerate":
                _, job, rate, rank = step
                if policy.has_rule_for_job(job):
                    policy.change_rate(f"r_{job}", rate, rank)
            else:
                _, job, rate, depth, rank = step
                if policy.has_rule_for_job(job):
                    policy.stop_rule(f"r_{job}")
                policy.start_rule(TbfRule(f"r_{job}", job, rate, depth, rank))
            record.append(snapshot(policy))
        # Serve out what is left, waking at each deadline.
        for _ in range(200):
            record.append(polled(policy))
            _, rpc, wake = record[-1]
            if rpc is None:
                wake = struct.unpack("<d", wake)[0]
                if not policy.env.now < wake < _INF:
                    break
                policy.env.now = wake
        record.append(snapshot(policy))
        return record

    return play


@given(rules=st.tuples(*[st.tuples(RATES, DEPTHS, RANKS)] * 3), steps=_steps())
@settings(max_examples=300, deadline=None)
def test_poll_matches_the_builtin_clamps(rules, steps):
    run_both(play_schedule(rules, steps))


def test_an_infinite_rate_at_the_take_instant_serves_back_to_back():
    """``inf * 0.0`` is NaN: the clamp must replace it with the depth, as
    ``min`` did, so a backlogged queue at an infinite rate keeps serving at
    the instant of its last take."""
    rules = [(_INF, 3.0, 0), (1.0, 3.0, 0), (1.0, 3.0, 0)]
    steps = [("enqueue", "a")] * 4 + [("poll",)] * 4
    record = run_both(play_schedule(rules, steps))
    polls = [entry[1:] for entry in record if entry[0] == "poll"]
    assert polls[:4] == [(f"rpc{n}", bits(0.0)) for n in range(4)]


# -- the bucket --------------------------------------------------------------------


@given(
    rate=RATES,
    depth=DEPTHS,
    tokens=st.none() | st.floats(0.0, 5.0),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["tokens_at", "ready_at", "try_consume", "set_rate"]),
            st.sampled_from([0.0, 1e-12]) | st.floats(0.0, 2.0),
            st.integers(1, 3),
            RATES,
        ),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=300, deadline=None)
def test_bucket_matches_the_builtin_clamps(rate, depth, tokens, steps):
    def play():
        bucket = TokenBucket(rate, depth, tokens, 0.0)
        now = 0.0
        record = []
        for name, dt, n, new_rate in steps:
            now += dt
            if name == "tokens_at":
                out = bits(bucket.tokens_at(now))
            elif name == "ready_at":
                out = bits(bucket.ready_at(now, n))
            elif name == "try_consume":
                out = bucket.try_consume(now, n)
            else:
                out = bits(bucket.set_rate(now, new_rate))
            record.append((out, bits(bucket._tokens), bits(bucket._last)))
        return record

    run_both(play)
