"""Unit tests for the classful TBF policy.

The policy reads only ``env.now``, so each test drives it on a settable
clock and observes it through ``poll``.
"""

import math
from types import SimpleNamespace

import pytest

from repro.lustre.nrs import TbfPolicy
from repro.lustre.rpc import Rpc
from repro.lustre.tbf import TbfRule


def make_rpc(job="jobA"):
    return Rpc(job_id=job, client_id="c0", size_bytes=1 << 20)


def make_policy():
    return TbfPolicy(SimpleNamespace(now=0.0))


def poll(s, now):
    """``s.poll()`` at time ``now``."""
    s.env.now = now
    return s.poll()


def serve(s, now):
    """The RPC a poll at ``now`` hands out, or None."""
    return poll(s, now)[0]


def drain(s, now):
    """Everything serviceable at `now`."""
    out = []
    while True:
        rpc = serve(s, now)
        if rpc is None:
            return out
        out.append(rpc)


def drain_all(s):
    """Poll at each wake time until the policy is empty."""
    out = []
    while True:
        rpc, wake = s.poll()
        if rpc is not None:
            out.append(rpc)
        elif math.isinf(wake):
            return out
        else:
            s.env.now = wake


class TestRuleManagement:
    def test_start_and_list_rules(self):
        s = make_policy()
        s.start_rule(TbfRule("r1", "jobA", rate=10))
        s.start_rule(TbfRule("r2", "jobB", rate=20))
        assert s.rule_names() == ["r1", "r2"]
        assert s.get_rule("r1").rate == 10
        assert s.has_rule_for_job("jobA")
        assert not s.has_rule_for_job("jobC")

    def test_duplicate_rule_name_rejected(self):
        s = make_policy()
        s.start_rule(TbfRule("r1", "jobA", rate=10))
        with pytest.raises(ValueError):
            s.start_rule(TbfRule("r1", "jobB", rate=10))

    def test_duplicate_job_rejected(self):
        s = make_policy()
        s.start_rule(TbfRule("r1", "jobA", rate=10))
        with pytest.raises(ValueError):
            s.start_rule(TbfRule("r2", "jobA", rate=10))

    def test_stop_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            make_policy().stop_rule("ghost")

    def test_change_rate_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            make_policy().change_rate("ghost", 5)

    def test_invalid_rule_parameters(self):
        with pytest.raises(ValueError):
            TbfRule("r", "j", rate=-1)
        with pytest.raises(ValueError):
            TbfRule("r", "j", rate=1, depth=0)
        with pytest.raises(ValueError, match="rule rate must be >= 0, got nan"):
            TbfRule("r", "j", rate=math.nan)
        with pytest.raises(ValueError, match="rule depth must be > 0, got nan"):
            TbfRule("r", "j", rate=1, depth=math.nan)

    def test_nan_rate_change_rejected_and_rule_unchanged(self):
        s = make_policy()
        s.start_rule(TbfRule("r1", "jobA", rate=10, depth=1, rank=2))
        for _ in range(3):
            s.enqueue(make_rpc())
        assert len(drain(s, 0.0)) == 1  # the one token of a depth-1 bucket
        s.env.now = 0.05
        with pytest.raises(ValueError, match="rate must be >= 0, got nan"):
            s.change_rate("r1", math.nan, rank=0)
        rule = s.get_rule("r1")
        assert (rule.rate, rule.rank) == (10, 2)
        # Still throttled at 10 tokens/s: nothing more until t = 0.1.
        rpc, wake = poll(s, 0.05)
        assert rpc is None
        assert wake == pytest.approx(0.1)
        assert len(drain(s, 0.1)) == 1

    def test_stop_rule_moves_backlog_to_fallback(self):
        s = make_policy()
        s.start_rule(TbfRule("r1", "jobA", rate=0.001, depth=1))
        first = make_rpc()
        s.enqueue(first)
        s.enqueue(make_rpc())
        s.enqueue(make_rpc())
        # Bucket starts full (1 token): one RPC is serviceable, two are gated.
        assert serve(s, 0.0) is first
        moved = s.stop_rule("r1")
        assert moved == 2
        # Backlog now drains without tokens through fallback.
        rest = drain(s, 0.0)
        assert len(rest) == 2
        assert all(rpc.via_fallback for rpc in rest)


class TestTokenGating:
    def test_initial_burst_limited_by_depth(self):
        s = make_policy()
        s.start_rule(TbfRule("r1", "jobA", rate=10, depth=3))
        for _ in range(10):
            s.enqueue(make_rpc())
        assert len(drain(s, 0.0)) == 3  # full bucket = 3 tokens

    def test_tokens_mature_over_time(self):
        s = make_policy()
        s.start_rule(TbfRule("r1", "jobA", rate=10, depth=3))
        for _ in range(10):
            s.enqueue(make_rpc())
        drain(s, 0.0)
        # After 0.5 s at 10 tokens/s, 5 tokens matured but the depth caps
        # the bucket at 3 — a single instant can serve at most `depth`.
        assert len(drain(s, 0.5)) == 3
        # Sampling frequently enough captures the full rate instead.
        total = sum(len(drain(s, 0.5 + 0.01 * i)) for i in range(1, 51))
        assert total == pytest.approx(5, abs=1)

    def test_served_rate_bounded(self):
        s = make_policy()
        s.start_rule(TbfRule("r1", "jobA", rate=100, depth=3))
        for _ in range(1000):
            s.enqueue(make_rpc())
        total = 0
        t = 0.0
        while t <= 2.0:
            total += len(drain(s, t))
            t += 0.001
        assert total <= 3 + 100 * 2.0 + 1
        assert total >= 100 * 2.0 - 1

    def test_fcfs_within_queue(self):
        s = make_policy()
        s.start_rule(TbfRule("r1", "jobA", rate=1000, depth=10))
        rpcs = [make_rpc() for _ in range(5)]
        for r in rpcs:
            s.enqueue(r)
        assert drain(s, 0.0) == rpcs

    def test_next_wake_reports_token_deadline(self):
        s = make_policy()
        s.start_rule(TbfRule("r1", "jobA", rate=2, depth=1))
        s.enqueue(make_rpc())
        s.enqueue(make_rpc())
        assert serve(s, 0.0) is not None  # consumes the initial token
        rpc, wake = poll(s, 0.0)
        assert rpc is None
        assert wake == pytest.approx(0.5)

    def test_next_wake_inf_when_empty(self):
        s = make_policy()
        s.start_rule(TbfRule("r1", "jobA", rate=2))
        assert poll(s, 0.0) == (None, math.inf)

    def test_zero_rate_queue_blocked_until_rerate(self):
        s = make_policy()
        s.start_rule(TbfRule("r1", "jobA", rate=1000, depth=1))
        s.enqueue(make_rpc())
        assert serve(s, 0.0) is not None
        s.change_rate("r1", 0)
        s.enqueue(make_rpc())
        assert poll(s, 100.0) == (None, math.inf)
        s.change_rate("r1", 10)
        assert serve(s, 100.1) is not None


class TestCrossQueueOrdering:
    def test_earliest_deadline_first(self):
        s = make_policy()
        # jobA refills fast, jobB slowly; both start with empty-ish buckets.
        s.start_rule(TbfRule("rA", "jobA", rate=10, depth=1))
        s.start_rule(TbfRule("rB", "jobB", rate=1, depth=1))
        a1, b1 = make_rpc("jobA"), make_rpc("jobB")
        s.enqueue(a1)
        s.enqueue(b1)
        got = [serve(s, 0.0), serve(s, 0.0)]
        assert set(got) == {a1, b1}  # both initial tokens available
        # Now both buckets are empty; next deadlines: A at +0.1, B at +1.0.
        a2, b2 = make_rpc("jobA"), make_rpc("jobB")
        s.enqueue(b2)
        s.enqueue(a2)
        assert serve(s, 1.5) is a2  # A's deadline (0.1) beats B's (1.0)
        assert serve(s, 1.5) is b2

    def test_rank_breaks_deadline_ties(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=10, depth=3, rank=5))
        s.start_rule(TbfRule("rB", "jobB", rate=10, depth=3, rank=1))
        a, b = make_rpc("jobA"), make_rpc("jobB")
        s.enqueue(a)
        s.enqueue(b)
        # Identical deadlines (both buckets full): lower rank (B) first.
        assert serve(s, 0.0) is b
        assert serve(s, 0.0) is a


class TestFallback:
    def test_unmatched_jobs_use_fallback(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=10))
        stranger = make_rpc("jobX")
        s.enqueue(stranger)
        got = serve(s, 0.0)
        assert got is stranger
        assert got.via_fallback

    def test_ready_rule_queue_beats_fallback(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=10, depth=3))
        a = make_rpc("jobA")
        x = make_rpc("jobX")
        s.enqueue(x)
        s.enqueue(a)
        assert serve(s, 0.0) is a  # token-backed queue wins
        assert serve(s, 0.0) is x

    def test_fallback_served_when_tokens_exhausted(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=1, depth=1))
        a1, a2 = make_rpc("jobA"), make_rpc("jobA")
        x = make_rpc("jobX")
        s.enqueue(a1)
        s.enqueue(a2)
        s.enqueue(x)
        assert serve(s, 0.0) is a1  # consumes jobA's only token
        assert serve(s, 0.0) is x  # jobA gated; fallback is opportunistic
        assert serve(s, 0.0) is None

    def test_pending_accounting(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=1, depth=1))
        s.enqueue(make_rpc("jobA"))
        s.enqueue(make_rpc("jobA"))
        s.enqueue(make_rpc("jobX"))
        # Everything queued comes out once: jobA's two through its rule,
        # jobX's one through the fallback queue.
        served = [(rpc.job_id, rpc.via_fallback) for rpc in drain_all(s)]
        assert sorted(served) == [
            ("jobA", False),
            ("jobA", False),
            ("jobX", True),
        ]


class TestRateChange:
    def test_rate_increase_takes_effect_immediately(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=1, depth=1))
        for _ in range(20):
            s.enqueue(make_rpc())
        drain(s, 0.0)  # burn the initial token
        assert len(drain(s, 0.001)) == 0
        s.change_rate("rA", 1000)
        # With 1000 t/s and depth 1, draining every ms serves ~1 per ms.
        got = sum(len(drain(s, 0.001 + 0.001 * i)) for i in range(1, 11))
        assert got == pytest.approx(10, abs=1)

    def test_rank_update_via_change_rate(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=10, rank=1))
        s.change_rate("rA", 10, rank=7)
        assert s.get_rule("rA").rank == 7

    def test_served_counters(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=10, depth=3))
        s.enqueue(make_rpc("jobA"))
        s.enqueue(make_rpc("jobX"))
        served = drain(s, 0.0)
        # One RPC served with a token, one through the fallback queue.
        assert [(rpc.job_id, rpc.via_fallback) for rpc in served] == [
            ("jobA", False),
            ("jobX", True),
        ]


class TestStaleHeapEntries:
    """Lazy invalidation: heap entries outlive stops/re-rates and must be
    skipped by version (or refreshed by deadline) instead of served."""

    def test_next_wake_skips_entry_of_stopped_rule(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=1, depth=1))
        s.enqueue(make_rpc("jobA"))  # pushes a heap entry
        s.stop_rule("rA")  # its queue goes; the entry is now stale
        got = serve(s, 0.0)
        assert got is not None and got.via_fallback
        # The stale entry must not report a wake deadline for a rule that
        # no longer exists (its backlog drained via fallback, untimed).
        assert poll(s, 0.0) == (None, math.inf)

    def test_restarted_rule_is_served_under_its_new_rank(self):
        """The stopped rule's heap entry must not pass for the restarted
        rule's: after a restart at a lower priority, rank orders the ties."""
        s = make_policy()
        s.start_rule(TbfRule("ra", "a", rate=10, rank=0))
        s.start_rule(TbfRule("rb", "b", rate=10, rank=1))
        old_a = make_rpc("a")
        s.enqueue(old_a)  # a heap entry under rank 0
        s.stop_rule("ra")  # old_a drains through the fallback queue
        s.start_rule(TbfRule("ra", "a", rate=10, rank=5))
        new_a, b = make_rpc("a"), make_rpc("b")
        s.enqueue(new_a)
        s.enqueue(b)
        assert drain(s, 0.0) == [b, new_a, old_a]
        assert old_a.via_fallback and not new_a.via_fallback

    def test_next_wake_skips_version_stale_entry_after_rerate(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=2, depth=1))
        s.enqueue(make_rpc("jobA"))
        s.enqueue(make_rpc("jobA"))
        assert serve(s, 0.0) is not None  # burn the initial token
        assert serve(s, 0.0) is None  # re-pushed with deadline +0.5
        # Re-rate slower: the old +0.5 entry is version-stale; the live
        # deadline is +2.0 (empty bucket at 0.5 t/s).
        s.change_rate("rA", 0.5)
        rpc, wake = poll(s, 0.0)
        assert rpc is None
        assert wake == pytest.approx(2.0)
        assert serve(s, 1.0) is None
        assert serve(s, 2.0) is not None

    def test_dequeue_skips_version_stale_entry_after_rerate(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=1, depth=1))
        s.enqueue(make_rpc("jobA"))
        s.enqueue(make_rpc("jobA"))
        assert serve(s, 0.0) is not None  # re-pushed with deadline +1.0
        # Re-rate faster: the stale +1.0 entry sits in the heap next to the
        # live +0.01 one; a poll must serve from the live entry only.
        s.change_rate("rA", 100)
        assert serve(s, 0.5) is not None
        assert poll(s, 0.5) == (None, math.inf)

    def test_next_wake_refreshes_deadline_of_rerated_bucket(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=2, depth=1))
        s.enqueue(make_rpc("jobA"))
        s.enqueue(make_rpc("jobA"))
        assert serve(s, 0.0) is not None
        assert serve(s, 0.0) is None  # heap entry at +0.5
        # Slow the bucket behind the policy's back (no version bump): the
        # entry's deadline is optimistic and must be re-pushed at the
        # bucket's actual ready time, not served early.
        s._by_job["jobA"].bucket.set_rate(0.0, 0.25)
        rpc, wake = poll(s, 0.0)
        assert rpc is None
        assert wake == pytest.approx(4.0)
        assert serve(s, 1.0) is None
        assert serve(s, 4.0) is not None


class TestRankChangeScheduling:
    def test_change_rate_rank_swap_reorders_deadline_ties(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=10, depth=1, rank=0))
        s.start_rule(TbfRule("rB", "jobB", rate=10, depth=1, rank=1))
        a1, a2 = make_rpc("jobA"), make_rpc("jobA")
        b1, b2 = make_rpc("jobB"), make_rpc("jobB")
        for rpc in (a1, b1, a2, b2):
            s.enqueue(rpc)
        # Equal full-bucket deadlines: the initial hierarchy serves A first.
        assert serve(s, 0.0) is a1
        assert serve(s, 0.0) is b1
        assert serve(s, 0.0) is None  # both buckets now empty
        # The daemon demotes A and promotes B mid-flight (same rates).
        s.change_rate("rA", 10, rank=5)
        s.change_rate("rB", 10, rank=0)
        assert s.get_rule("rA").rank == 5
        assert s.get_rule("rB").rank == 0
        # Both refill deadlines mature at +0.1; the new hierarchy decides,
        # and the pre-change (stale) heap entries must not resurrect the
        # old order.
        assert serve(s, 0.2) is b2
        assert serve(s, 0.2) is a2

    def test_change_rate_preserves_accrued_tokens_and_rank(self):
        s = make_policy()
        s.start_rule(TbfRule("rA", "jobA", rate=1, depth=3, rank=2))
        s.enqueue(make_rpc("jobA"))
        s.enqueue(make_rpc("jobA"))
        # Only the slope changes: the full depth-3 bucket still serves the
        # backlog immediately after a re-rate, and rank is untouched when
        # not passed.
        s.change_rate("rA", 0.001)
        assert len(drain(s, 0.0)) == 2
        assert s.get_rule("rA").rank == 2
