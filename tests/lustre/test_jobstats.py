"""Unit tests for the per-OST job-stats tracker (``lustre/jobstats.py``)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lustre import FifoPolicy, Oss, Ost
from repro.lustre.jobstats import JobStatsTracker
from repro.lustre.rpc import Rpc
from repro.sim import Environment

MB = 1 << 20


def rpc(job, size=MB):
    return Rpc(job_id=job, client_id="c0", size_bytes=size)


class ShadowStats:
    """Plain counters, and the demand formula as each mechanism once wrote it.

    Before the tracker kept ``demands()``, four mechanisms each computed
    ``served this period + (issued − served over the job's lifetime)`` over
    the period's jobs plus every job with outstanding RPCs, keeping the
    positive ones (DESIGN.md deviation 7).
    """

    def __init__(self):
        self.arrived = {}
        self.served = {}
        self.issued = {}
        self.completed = {}

    def arrive(self, job):
        self.arrived[job] = self.arrived.get(job, 0) + 1
        self.issued[job] = self.issued.get(job, 0) + 1

    def complete(self, job):
        self.served[job] = self.served.get(job, 0) + 1
        self.completed[job] = self.completed.get(job, 0) + 1

    def clear(self):
        self.arrived.clear()
        self.served.clear()

    def outstanding(self, job):
        return self.issued.get(job, 0) - self.completed.get(job, 0)

    def demands(self):
        period = set(self.arrived) | set(self.served)
        backlogged = {j for j in self.issued if self.outstanding(j) > 0}
        demands = {}
        for job in period | backlogged:
            d = self.served.get(job, 0) + self.outstanding(job)
            if d > 0:
                demands[job] = d
        return demands


class TestPeriodCounters:
    def test_snapshot_counts_rpcs(self):
        tracker = JobStatsTracker()
        for size in (MB, 2 * MB, 3 * MB):
            tracker.record_arrival(rpc("a", size))
        tracker.record_completion(rpc("a", MB))
        tracker.record_completion(rpc("b", 4 * MB))
        snap = tracker.snapshot()
        assert sorted(snap) == ["a", "b"]
        assert (snap["a"].arrived, snap["a"].served) == (3, 1)
        assert (snap["b"].arrived, snap["b"].served) == (0, 1)

    def test_clear_resets_the_period_but_keeps_outstanding(self):
        tracker = JobStatsTracker()
        for _ in range(3):
            tracker.record_arrival(rpc("a"))
        tracker.record_completion(rpc("a"))
        assert tracker.demands() == {"a": 3}  # 1 served + 2 outstanding
        tracker.clear()
        assert tracker.snapshot() == {}
        assert tracker.outstanding("a") == 2
        # A backlogged job stays active in the next period.
        assert tracker.demands() == {"a": 2}
        tracker.record_completion(rpc("a"))
        tracker.record_completion(rpc("a"))
        assert tracker.outstanding("a") == 0
        assert tracker.demands() == {"a": 2}  # served this period
        tracker.clear()
        assert tracker.demands() == {}

    def test_demands_are_sorted_by_job(self):
        tracker = JobStatsTracker()
        for job in ("zeta", "alpha", "mid", "beta"):
            tracker.record_arrival(rpc(job))
        assert list(tracker.demands()) == ["alpha", "beta", "mid", "zeta"]


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), st.sampled_from("abcdef")),
        st.tuples(st.just("complete"), st.sampled_from("abcdef")),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=120,
)


@given(ops=OPS)
@settings(max_examples=300, deadline=None)
def test_demands_match_the_served_plus_outstanding_formula(ops):
    """Completions may outnumber arrivals (an RPC enqueued on the policy
    directly completes with no recorded arrival), so outstanding counts
    can go negative; the demand signal must match the old formula anyway."""
    tracker = JobStatsTracker()
    shadow = ShadowStats()
    for op, job in ops:
        if op == "arrive":
            tracker.record_arrival(rpc(job))
            shadow.arrive(job)
        elif op == "complete":
            tracker.record_completion(rpc(job))
            shadow.complete(job)
        else:
            tracker.clear()
            shadow.clear()
        expected = shadow.demands()
        got = tracker.demands()
        assert got == expected
        assert list(got) == sorted(expected)
        for name in "abcdef":
            assert tracker.outstanding(name) == shadow.outstanding(name)


def test_rpc_enqueued_on_the_policy_directly_goes_negative():
    """Only the OSS's receive path records arrivals; bypassing it leaves a
    completion without an arrival, which the demand signal ignores."""
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=100 * MB)
    oss = Oss(env, ost, FifoPolicy(env))
    oss.policy.enqueue(rpc("j"))
    env.run()
    tracker = oss.jobstats
    assert tracker.snapshot()["j"].served == 1
    assert tracker.outstanding("j") == -1
    assert tracker.demands() == {}  # 1 served + (-1) outstanding
    tracker.record_arrival(rpc("j"))
    assert tracker.outstanding("j") == 0
    assert tracker.demands() == {"j": 1}
    tracker.clear()
    assert tracker.demands() == {}
