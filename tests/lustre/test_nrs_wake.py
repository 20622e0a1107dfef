"""The NRS wake protocol: when a policy calls its ``on_work`` hook.

The OSS wakes idle service slots only from this hook, so a policy calls it
once for each change that may make queued work serviceable (an arrival, a
rule start, a re-rate, a stop that re-files RPCs), after the change, and
never from a poll.  A policy reads only ``env.now``, so these tests run it
on a settable clock.
"""

from types import SimpleNamespace

import pytest

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
