"""The NRS wake protocol: when a policy calls its ``on_work`` hook.

The OSS wakes idle service slots only from this hook, so a policy calls it
once for each change that may make queued work serviceable (an arrival, a
rule start, a batch of re-rates, a stop that re-files RPCs), after the
change, and never from a poll.  A policy reads only ``env.now``, so these tests run it
on a settable clock.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lustre.nrs import FifoPolicy, TbfPolicy
from repro.lustre.rpc import Rpc
from repro.lustre.tbf import TbfRule


def make_rpc(job_id):
    return Rpc(job_id=job_id, client_id="c0", size_bytes=1 << 20)


def hooked(policy_cls):
    """A policy at time 0 and the list its ``on_work`` calls append to."""
    policy = policy_cls(SimpleNamespace(now=0.0))
    calls = []
    policy.on_work = lambda: calls.append(policy.env.now)
    return policy, calls


@pytest.mark.parametrize("policy_cls", [FifoPolicy, TbfPolicy])
def test_one_wake_per_enqueue_and_none_per_poll(policy_cls):
    policy, calls = hooked(policy_cls)
    if policy_cls is TbfPolicy:
        policy.start_rule(TbfRule("r", "ruled", rate=1.0, depth=1))
        calls.clear()
    # Ruled and fallback arrivals alike wake once each.
    for n, job in enumerate(("ruled", "unruled", "ruled", "unruled"), 1):
        policy.enqueue(make_rpc(job))
        assert len(calls) == n
    # Polls that serve, that find nothing, and that wait out a token.
    served = 0
    for now in (0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 2.0):
        policy.env.now = now
        served += policy.poll()[0] is not None
    assert served == 4
    assert len(calls) == 4


def test_one_wake_per_rule_start_after_the_table_changed():
    policy = TbfPolicy(SimpleNamespace(now=0.0))
    seen = []
    policy.on_work = lambda: seen.append(
        (policy.has_rule_for_job("a"), policy.has_rule_for_job("b"))
    )
    policy.start_rule(TbfRule("ra", "a", rate=1.0))
    assert seen == [(True, False)]
    policy.start_rule(TbfRule("rb", "b", rate=0.0))
    assert seen == [(True, False), (True, True)]
    with pytest.raises(ValueError):
        policy.start_rule(TbfRule("ra", "c", rate=1.0))  # rejected: no wake
    assert len(seen) == 2


def test_one_wake_per_change_rate_even_on_an_empty_queue():
    policy, calls = hooked(TbfPolicy)
    policy.start_rule(TbfRule("ra", "a", rate=1.0))
    policy.start_rule(TbfRule("rb", "b", rate=1.0))
    policy.enqueue(make_rpc("a"))
    calls.clear()
    policy.change_rate("ra", 5.0)  # a queue holding an RPC
    assert len(calls) == 1
    policy.change_rate("rb", 5.0)  # an empty queue
    assert len(calls) == 2
    policy.change_rate("rb", 5.0, rank=3)  # the same rate, a new rank
    assert len(calls) == 3
    with pytest.raises(KeyError):
        policy.change_rate("ghost", 1.0)  # rejected: no wake
    assert len(calls) == 3


def test_a_stop_wakes_once_only_when_it_refiles_rpcs():
    policy = TbfPolicy(SimpleNamespace(now=0.0))
    # A rate-0, depth-1 rule serves one RPC and then holds the rest.
    policy.start_rule(TbfRule("ra", "a", rate=0.0, depth=1))
    policy.start_rule(TbfRule("rb", "b", rate=1.0))
    policy.start_rule(TbfRule("rc", "c", rate=1.0))
    for _ in range(3):
        policy.enqueue(make_rpc("a"))
    policy.enqueue(make_rpc("c"))
    assert policy.poll()[0].job_id == "a"
    assert policy.poll()[0].job_id == "c"
    seen = []
    policy.on_work = lambda: seen.append(policy.has_rule_for_job("a"))
    assert policy.stop_rule("rb") == 0  # never queued anything
    assert policy.stop_rule("rc") == 0  # its queue was served empty
    assert seen == []
    assert policy.stop_rule("ra") == 2
    assert seen == [False]  # once, with the rule already gone
    for _ in range(2):
        assert policy.poll()[0].via_fallback
    assert seen == [False]


# -- re-rate batches ---------------------------------------------------------------


def ruled(*rules):
    """A hooked TBF policy holding ``rules``, with the start wakes cleared."""
    policy, calls = hooked(TbfPolicy)
    for rule in rules:
        policy.start_rule(rule)
    calls.clear()
    return policy, calls


def test_a_batch_wakes_once_after_every_rule_has_its_new_rate_and_rank():
    policy = TbfPolicy(SimpleNamespace(now=0.0))
    for name, job in (("ra", "a"), ("rb", "b"), ("rc", "c")):
        policy.start_rule(TbfRule(name, job, rate=1.0))
    policy.enqueue(make_rpc("b"))
    seen = []
    policy.on_work = lambda: seen.append(
        [(rule.rate, rule.rank) for rule in map(policy.get_rule, ("ra", "rb", "rc"))]
    )
    policy.env.now = 0.5
    policy.change_rates([("ra", 2.0, 4), ("rb", 0.0, 5), ("rc", 7.5, None)])
    assert seen == [[(2.0, 4), (0.0, 5), (7.5, 0)]]


def test_an_empty_batch_does_not_wake():
    policy, calls = ruled(TbfRule("ra", "a", rate=1.0))
    policy.change_rates([])
    policy.change_rates(iter(()))
    assert calls == []
    assert policy.get_rule("ra").rate == 1.0


def settled(policy, name):
    """A rule's rate and rank and its bucket's level and settle time."""
    rule = policy.get_rule(name)
    bucket = policy._by_job[rule.job_id].bucket
    return rule.rate, rule.rank, bucket._tokens, bucket._last


@pytest.mark.parametrize(
    "bad",
    [("ghost", 2.0, 1), ("rc", float("nan"), 1), ("rc", -1.0, 1), ("rb", 2.0, 1)],
    ids=["unknown-name", "nan-rate", "negative-rate", "backwards-time"],
)
def test_a_rejected_entry_keeps_the_entries_before_it_and_wakes_for_them(bad):
    """The entry raises before its own rule changes; the entries before it
    stay applied and are woken for once, as each of the per-rule calls they
    replace woke; the entries after it are not applied."""
    policy, calls = ruled(
        TbfRule("ra", "a", rate=1.0),
        TbfRule("rb", "b", rate=1.0),
        TbfRule("rc", "c", rate=1.0),
    )
    # rb's bucket settles at t=5, so a batch at t=3 is a backwards time for
    # rb alone.
    policy.env.now = 5.0
    policy.change_rate("rb", 1.0)
    policy.env.now = 3.0
    calls.clear()
    before = [settled(policy, name) for name in ("rb", "rc")]
    error = KeyError if bad[0] == "ghost" else ValueError
    with pytest.raises(error):
        policy.change_rates([("ra", 4.0, 2), bad, ("rc", 9.0, 3)])
    assert (policy.get_rule("ra").rate, policy.get_rule("ra").rank) == (4.0, 2)
    assert policy._by_job["a"].bucket._last == 3.0
    assert [settled(policy, name) for name in ("rb", "rc")] == before
    assert calls == [3.0]


def test_a_batch_rejected_at_its_first_entry_does_not_wake():
    policy, calls = ruled(TbfRule("ra", "a", rate=1.0))
    policy.env.now = float("nan")
    with pytest.raises(ValueError, match="time went backwards"):
        policy.change_rates([("ra", 2.0, None)])
    assert calls == []
    assert policy.get_rule("ra").rate == 1.0


class ParentRatePolicy(TbfPolicy):
    """The policy with the per-rule ``change_rate`` it had before re-rates
    came in batches (verbatim: settle, re-rate, re-push, wake)."""

    __slots__ = ()

    def change_rate(self, name, rate, rank=None):
        rule = self._rules.get(name)
        if rule is None:
            raise KeyError(f"no rule named {name!r}")
        queue = self._by_job[rule.job_id]
        # Settles the bucket and yields its next-token deadline in one call;
        # it rejects a bad rate or time before anything is changed.
        deadline = queue.bucket.set_rate(self.env.now, rate)
        rule.rate = float(rate)
        if rank is not None:
            rule.rank = rank
        if queue.items:
            self._push(rule.job_id, queue, deadline)
        self.on_work()  # deadlines may have moved earlier


JOBS = ("a", "b", "c", "d")
RATES = st.sampled_from((0.0, 0.7, 1.0, 2.5, 40.0, 1e-3))


def state(policy):
    """Everything a re-rate may touch, bit for bit."""
    return (
        [
            (
                job,
                queue.rule.rate,
                queue.rule.rank,
                queue.version,
                len(queue.items),
                queue.bucket._tokens,
                queue.bucket._last,
                queue.bucket._rate,
            )
            for job, queue in sorted(policy._by_job.items())
        ],
        list(policy._heap),
    )


@st.composite
def rerate_programs(draw):
    """Rules (rate 0 and depth < 1 included), backlogs on some of them, then
    steps: a clock advance with polls, an arrival, or a re-rate batch."""
    rules = [
        (job, draw(RATES), draw(st.sampled_from((0.5, 1.0, 3.0))), draw(st.integers(0, 3)))
        for job in JOBS
    ]
    backlog = {job: draw(st.integers(0, 3)) for job in JOBS}
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("advance", "arrive", "batch", "batch")))
        if kind == "advance":
            steps.append((kind, draw(st.floats(0.0, 2.0)), draw(st.integers(0, 3))))
        elif kind == "arrive":
            steps.append((kind, draw(st.sampled_from(JOBS))))
        else:
            entries = draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(JOBS),
                        RATES,
                        st.one_of(st.none(), st.integers(0, 3)),
                    ),
                    max_size=6,
                )
            )
            steps.append((kind, [(f"r{job}", rate, rank) for job, rate, rank in entries]))
    return rules, backlog, steps


@given(rerate_programs())
@settings(max_examples=300, deadline=None)
def test_a_batch_rerates_like_the_parents_per_rule_calls(program):
    """``change_rates`` against the parent's per-rule ``change_rate`` on the
    same random batches: equal buckets, rules, queue versions and heaps
    after every step, and equal polls after it."""
    rules, backlog, steps = program
    new, new_calls = hooked(TbfPolicy)
    ref, _ = hooked(ParentRatePolicy)
    served = {id(new): [], id(ref): []}
    for policy in (new, ref):
        for job, rate, depth, rank in rules:
            policy.start_rule(TbfRule(f"r{job}", job, rate=rate, depth=depth, rank=rank))
        for job in JOBS:
            for _ in range(backlog[job]):
                policy.enqueue(make_rpc(job))
    for step in steps:
        new_calls.clear()
        for policy in (new, ref):
            if step[0] == "advance":
                policy.env.now += step[1]
                for _ in range(step[2]):
                    rpc, wake = policy.poll()
                    served[id(policy)].append(
                        (None if rpc is None else rpc.job_id, wake)
                    )
            elif step[0] == "arrive":
                policy.enqueue(make_rpc(step[1]))
            elif policy is new:
                policy.change_rates(step[1])
            else:
                for name, rate, rank in step[1]:
                    policy.change_rate(name, rate, rank)
        if step[0] == "batch":
            assert len(new_calls) == (1 if step[1] else 0)
        assert state(new) == state(ref)
        assert served[id(new)] == served[id(ref)]
    for policy in (new, ref):
        for _ in range(12):
            rpc, wake = policy.poll()
            served[id(policy)].append((None if rpc is None else rpc.job_id, wake))
            if rpc is None and wake != float("inf"):
                policy.env.now = wake
    assert served[id(new)] == served[id(ref)]
    assert state(new) == state(ref)
