"""Importable single-OST stack builder shared across test packages.

Lives outside ``conftest.py`` on purpose: ``tests/workloads`` imports
:func:`build_stack` as a plain module-level function (its subprocess
seeding test needs picklable module-level helpers, which fixtures are
not), and the bare module name ``conftest`` is ambiguous the moment any
test package grows its own ``conftest.py``.  The root conftest re-exports
it for the fixture family built on top.
"""

import collections

from repro.core import (
    RuleManagementDaemon,
    SystemStatsController,
    TokenAllocationAlgorithm,
)
from repro.lustre import Network, Oss, Ost, TbfPolicy

MB = 1 << 20

Stack = collections.namedtuple("Stack", "ost policy oss net")


def build_stack(
    env,
    policy_cls=None,
    capacity_mbps=100,
    io_threads=8,
    latency_s=0.0,
    mechanism=None,
):
    """One OST behind one OSS and a zero-latency network by default.

    The NRS policy comes from ``policy_cls`` when given; otherwise from
    ``mechanism`` (a registered bandwidth-mechanism name, asked for its
    own policy class so tests need not know which one each mechanism
    wants); otherwise :class:`TbfPolicy`.
    """
    ost = Ost(env, "ost0", capacity_bps=capacity_mbps * MB)
    if policy_cls is not None:
        policy = policy_cls(env)
    elif mechanism is not None:
        from repro.core.mechanism import MECHANISMS

        policy = MECHANISMS.build(mechanism).nrs_policy(env)
    else:
        policy = TbfPolicy(env)
    oss = Oss(env, ost, policy, io_threads=io_threads)
    net = Network(env, latency_s=latency_s)
    return Stack(ost, policy, oss, net)


def attach_controller(
    env,
    oss,
    nodes,
    max_token_rate,
    interval_s=0.1,
    overhead_s=0.0,
    algorithm=None,
):
    """An AdapTBF control loop on a hand-built OSS.

    Wires the same three pieces, in the same order, as the ``adaptbf``
    mechanism's ``install`` does from a spec: allocation algorithm, rule
    daemon, then the System Stats Controller (whose loop starts here).
    """
    return SystemStatsController(
        env,
        jobstats=oss.jobstats,
        algorithm=algorithm or TokenAllocationAlgorithm(),
        daemon=RuleManagementDaemon(oss.policy),
        nodes=nodes,
        max_token_rate=max_token_rate,
        interval_s=interval_s,
        overhead_s=overhead_s,
    )
