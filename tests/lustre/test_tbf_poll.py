"""The TBF policy's poll: exact wake times, and what a drain hands out."""

import math
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.lustre.nrs import TbfPolicy
from repro.lustre.rpc import Rpc
from repro.lustre.tbf import TbfRule


def make_rpc(job_id: str) -> Rpc:
    return Rpc(job_id=job_id, client_id="c0", size_bytes=1 << 20)


def make_policy() -> TbfPolicy:
    return TbfPolicy(SimpleNamespace(now=0.0))


def poll(s, now):
    """``s.poll()`` at time ``now``."""
    s.env.now = now
    return s.poll()


def drain_all(s):
    """Poll at each wake time until ``poll`` returns ``(None, inf)``."""
    out = []
    while True:
        rpc, wake = s.poll()
        if rpc is not None:
            out.append(rpc)
        elif math.isinf(wake):
            return out
        else:
            s.env.now = wake


class TestPollFusion:
    def test_poll_equals_dequeue_then_next_wake(self):
        """A poll's wake time is exact: a poll before it serves nothing and
        a poll at it serves a token-backed RPC."""
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=2, depth=1))
        s.start_rule(TbfRule("rB", "jobB", rate=4, depth=1, rank=1))
        for _ in range(3):
            s.enqueue(make_rpc("jobA"))
            s.enqueue(make_rpc("jobB"))
        s.enqueue(make_rpc("unruled"))

        served = []
        waits = 0
        for _ in range(40):
            rpc, wake = s.poll()
            if rpc is not None:
                served.append(rpc)
                continue
            if math.isinf(wake):
                break
            now = s.env.now
            assert wake > now
            rpc, again = poll(s, (now + wake) / 2)
            assert rpc is None
            assert again == pytest.approx(wake)
            rpc, _ = poll(s, wake)
            assert rpc is not None and not rpc.via_fallback
            served.append(rpc)
            waits += 1
        assert s.poll() == (None, math.inf)
        assert Counter(rpc.job_id for rpc in served) == {
            "jobA": 3,
            "jobB": 3,
            "unruled": 1,
        }
        # Waits end at 0.25 (B), 0.5 (A, with B's token matured beside it,
        # served by the next poll) and 1.0 (A).
        assert waits == 3

    def test_poll_returns_wake_for_future_deadline(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=2, depth=1))
        s.enqueue(make_rpc("jobA"))
        s.enqueue(make_rpc("jobA"))
        rpc, _ = s.poll()
        assert rpc is not None  # burns the initial token
        rpc, wake = s.poll()
        assert rpc is None
        assert wake == pytest.approx(0.5)

    def test_poll_serves_fallback_when_tokens_are_dry(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=1, depth=1))
        s.enqueue(make_rpc("jobA"))
        s.enqueue(make_rpc("jobA"))
        s.enqueue(make_rpc("stranger"))
        assert s.poll()[0].job_id == "jobA"  # token-backed first
        served = s.poll()[0]  # jobA's bucket is dry → fallback wins
        assert served.job_id == "stranger"
        assert served.via_fallback

    def test_poll_empty_scheduler(self):
        assert make_policy().poll() == (None, math.inf)


class TestOccupancyCounters:
    """What a policy holds is what a drain hands out, once each."""

    def test_pending_tracks_rule_and_fallback_queues(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=10, depth=3))
        assert s.poll() == (None, math.inf)
        s.enqueue(make_rpc("jobA"))
        s.enqueue(make_rpc("jobA"))
        s.enqueue(make_rpc("nobody"))
        via_fallback = {}
        for rpc in drain_all(s):
            via_fallback.setdefault(rpc.job_id, []).append(rpc.via_fallback)
        assert via_fallback == {"jobA": [False, False], "nobody": [True]}
        assert poll(s, 10.0) == (None, math.inf)

    def test_stop_rule_moves_counts_to_fallback(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=10, depth=3))
        rpcs = [make_rpc("jobA") for _ in range(4)]
        for rpc in rpcs:
            s.enqueue(rpc)
        moved = s.stop_rule("rA")
        assert moved == 4
        # All four now wait in the fallback queue, in arrival order.
        served = drain_all(s)
        assert served == rpcs
        assert all(rpc.via_fallback for rpc in served)
        assert s.env.now == 0.0  # the fallback queue needs no token

    def test_fallback_counts_interleaved_jobs(self):
        s = make_policy()
        rpcs = [make_rpc(job) for job in ("x", "y", "x", "x", "y")]
        for rpc in rpcs:
            s.enqueue(rpc)
        served = drain_all(s)
        assert served == rpcs  # FIFO across jobs
        assert all(rpc.via_fallback for rpc in served)
        assert Counter(rpc.job_id for rpc in served) == {"x": 3, "y": 2}
