"""How much service the TBF fallback queue gives, pinned per scenario.

``TbfPolicy`` classifies an RPC once, at enqueue (DESIGN.md deviation 9):
an RPC that arrives before its job's rule starts drains through the
fallback queue, possibly while that rule is live.  The four counts below
are taken by wrapping ``TbfPolicy.enqueue`` and ``TbfPolicy.poll`` on one
run of each scenario at its default scale under ``adaptbf``.  A change
that moves them changes which RPCs take tokens; re-pin them deliberately,
and update deviation 9's table with them.
"""

import pytest

from repro.lustre.nrs import TbfPolicy
from repro.scenarios import REGISTRY, run_scenario

#: scenario → (arrivals, arrivals that found a rule, fallback services,
#: fallback services while the job's rule was live).
FALLBACK_COUNTS = {
    "quickstart": (2048, 1888, 160, 48),
    "allocation": (6592, 5984, 608, 496),
    "redistribution": (3805, 3149, 656, 133),
    "recompensation": (11430, 10961, 469, 123),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_COUNTS))
def test_fallback_counts(name, monkeypatch):
    counts = [0, 0, 0, 0]
    enqueue, poll = TbfPolicy.enqueue, TbfPolicy.poll

    def counting_enqueue(self, rpc):
        counts[0] += 1
        counts[1] += self.has_rule_for_job(rpc.job_id)
        enqueue(self, rpc)

    def counting_poll(self):
        rpc, wake = poll(self)
        # No scenario here crashes an OST, so no RPC is served twice and
        # ``via_fallback`` marks exactly the fallback services.
        if rpc is not None and rpc.via_fallback:
            counts[2] += 1
            counts[3] += self.has_rule_for_job(rpc.job_id)
        return rpc, wake

    monkeypatch.setattr(TbfPolicy, "enqueue", counting_enqueue)
    monkeypatch.setattr(TbfPolicy, "poll", counting_poll)
    spec = REGISTRY.build(name)
    assert spec.policy.mechanism == "adaptbf"
    run_scenario(spec)
    assert tuple(counts) == FALLBACK_COUNTS[name]
