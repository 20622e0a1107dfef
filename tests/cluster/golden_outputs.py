"""Golden digests: pinned byte-for-byte outputs of the simulator.

The reproduction's fixed reference is its output: figure CSVs, campaign
``rows.json`` and scenario results must not move unless a change means to
move them.  These digests pin small, fast instances of the paths most likely
to drift under a refactor of the event kernel or the Lustre model:

* a two-cell ``decentralization-tax`` campaign (multi-OST, every
  mechanism's control plane, same-instant transfer starts on two OSTs);
* a small ``mechanism-shootout`` on ``redistribution``, whose rows pin
  every mechanism's rule churn (rules created, stopped and re-rated);
* ``quickstart`` under ``ost-crash`` (requeue, parked I/O threads,
  recovery) and under ``client-churn`` (killed and joining clients);
* a small ``client-swarm`` (hundreds of clients, mixed reads and writes);
* a many-tenant ``client-swarm`` (16 jobs striped over 4 OSTs at 50 Hz
  control), whose digest also covers every OST's control rounds: round
  time, demands, final allocations, the ledger and the rule counters;
* the fig5/fig6 CSVs (``fig5_fig6.run()`` at its 1/10 bench scale under
  all three mechanisms, exported with ``export_all``), the figure files
  the paper's plots are drawn from.

A change that moves one of these digests changes what the simulator
computes.  If that is intended, say why in the change description and
re-pin the digest from the output of ``--print``.

The four producers that build a cluster also pin the run's
``env.scheduled`` and ``env.dispatched`` (``DISPATCHES``): a change meant
to move no calendar entry, such as a cheaper service path, must leave both
counts equal even where the outputs could not tell.

This module needs neither pytest nor numpy, so it doubles as the
interpreter parity check: run it with any Python to recompute every digest
and compare it with the pin (exit status 1 if one moved)::

    PYTHONPATH=src python tests/cluster/golden_outputs.py
    PYTHONPATH=src python tests/cluster/golden_outputs.py --print  # re-pin

``test_golden_outputs.py`` runs the same producers under pytest.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from repro.campaigns import CAMPAIGNS, run_campaign, write_artifacts
from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.experiments import fig5_fig6
from repro.metrics.export import export_all
from repro.scenarios import REGISTRY

#: sha256 of each pinned output (see the module docstring).
DIGESTS = {
    "client-swarm.many-tenants": "02e0974a8fc24b8ea40b5fda192f740fc0b0d1c5258a908af74a4d2eace79486",
    "client-swarm.small": "7fc92205e5336bbdf07e5997898494b28f35e3ccb25ea3f670b92177f76b9d32",
    "decentralization-tax.rows.json": "3e6b8aaf373bacddba4de410528a8c430b06435fb0529b3f4bbf941829923ce6",
    "fig5_fig6.csv": "d3b238b2d52f8a05d80e475c7aa865ade37bf4e12122815876125f3b911604ea",
    "mechanism-shootout.rows.json": "4280cca951db547aeaab8f8ca4636952083541deff7fe79bd51167de3a00e072",
    "quickstart.client-churn": "de6fcdaa47e33f846ade790041820fa4dbfd51f544ead235e748b041fa150222",
    "quickstart.ost-crash": "dca65e2e596b4ce399f5ede560b060a6fcaa6189fc78b64d489d1af61b3fbf03",
}

#: ``(env.scheduled, env.dispatched)`` of each producer that builds a
#: cluster; the others produce ``None``.
DISPATCHES = {
    "client-swarm.many-tenants": (3712, 3256),
    "client-swarm.small": (15508, 13510),
    "quickstart.client-churn": (24077, 20984),
    "quickstart.ost-crash": (24588, 21450),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _result_digest(spec, control_plane: bool = False):
    """Digest everything a run reports plus every RPC's lifecycle, and the
    run's ``(env.scheduled, env.dispatched)``.

    Completed RPCs are logged per OSS in completion order with all their
    timestamps, so a reordering that leaves the summary intact still shows.
    With ``control_plane`` the digest also covers each OST's allocation
    rounds and rule counters.
    """
    cluster = build(spec)
    served = []
    for index, oss in enumerate(cluster.osses):
        oss.on_complete(
            lambda rpc, index=index: served.append(
                (
                    index,
                    rpc.job_id,
                    rpc.client_id,
                    rpc.kind.value,
                    rpc.size_bytes,
                    rpc.submitted,
                    rpc.arrived,
                    rpc.dequeued,
                    rpc.completed,
                    rpc.via_fallback,
                )
            )
        )
    result = execute(cluster)
    outcome = (
        result.duration_s,
        result.clients_finished,
        result.summary.aggregate_mib_s,
        sorted(result.summary.per_job_mib_s.items()),
        sorted(result.job_completion_s.items()),
        result.ost_utilization,
        cluster.rpcs_dropped,
        cluster.rpcs_retried,
        served,
    )
    if control_plane:
        outcome += (_control_rounds(cluster),)
    env = cluster.env
    return _sha256(repr(outcome).encode()), (env.scheduled, env.dispatched)


def _control_rounds(cluster):
    """Per OST: rule counters, then each round's time, demands, grants, ledger."""
    return [
        (
            handle.rules_created,
            handle.rules_stopped,
            handle.rate_changes,
            [
                (
                    round_.time,
                    sorted(round_.demands.items()),
                    sorted(round_.result.allocations.items()),
                    sorted(round_.records.items()),
                )
                for round_ in handle.history
            ],
        )
        for handle in cluster.handles
    ]


def _rows_digest(result) -> str:
    with tempfile.TemporaryDirectory() as out:
        written = write_artifacts(result, out)
        return _sha256(Path(written["rows"]).read_bytes())


def _campaign_rows_digest():
    campaign = CAMPAIGNS.build("decentralization-tax")
    return _rows_digest(run_campaign(campaign, jobs=1, max_cells=2)), None


def _shootout_rows_digest():
    campaign = CAMPAIGNS.build(
        "mechanism-shootout",
        scenario="redistribution",
        data_scale=0.08,
        time_scale=0.08,
    )
    return _rows_digest(run_campaign(campaign, jobs=1)), None


def _fig5_csvs():
    """Every CSV ``export_all`` writes for fig5/fig6, by name and content."""
    comparison = fig5_fig6.run()
    with tempfile.TemporaryDirectory() as out:
        written = export_all(comparison.results, out, prefix="fig5")
        files = sorted(
            (path.name, _sha256(path.read_bytes())) for path in written.values()
        )
    return _sha256(repr(files).encode()), None


def _quickstart(fault: str):
    return _result_digest(REGISTRY.build("quickstart").with_fault(fault))


def _small_swarm():
    spec = REGISTRY.build(
        "client-swarm", n_clients=240, n_jobs=4, n_osts=2, op_mib=2.0, duration=1.0
    ).with_workload("mixed-rw", {"read_fraction": 0.25})
    return _result_digest(spec)


def _many_tenants():
    spec = REGISTRY.build(
        "client-swarm",
        n_clients=16,
        n_jobs=16,
        n_osts=4,
        stripe_count=4,
        op_mib=256.0,
        window=2,
        capacity_mib_s=256.0,
        interval_s=0.02,
        duration=0.5,
    )
    return _result_digest(spec, control_plane=True)


#: Each producer returns ``(digest, counts)``: ``counts`` is the run's
#: ``(env.scheduled, env.dispatched)``, or ``None`` if it builds no cluster.
PRODUCERS = {
    "client-swarm.many-tenants": _many_tenants,
    "decentralization-tax.rows.json": _campaign_rows_digest,
    "fig5_fig6.csv": _fig5_csvs,
    "mechanism-shootout.rows.json": _shootout_rows_digest,
    "quickstart.ost-crash": lambda: _quickstart("ost-crash"),
    "quickstart.client-churn": lambda: _quickstart("client-churn"),
    "client-swarm.small": _small_swarm,
}


def main(argv=None) -> int:
    """Recompute every digest and count; report each, exit 1 if any moved.

    ``--print`` writes the recomputed ``DIGESTS`` and ``DISPATCHES`` for
    re-pinning instead.
    """
    args = sys.argv[1:] if argv is None else argv
    if args == ["--print"]:
        results = {key: PRODUCERS[key]() for key in sorted(PRODUCERS)}
        print("DIGESTS = {")
        for key, (digest, _counts) in results.items():
            print(f'    "{key}": "{digest}",')
        print("}")
        print("DISPATCHES = {")
        for key, (_digest, counts) in results.items():
            if counts is not None:
                print(f'    "{key}": {counts},')
        print("}")
        return 0
    if args:
        print("usage: golden_outputs.py [--print]", file=sys.stderr)
        return 2
    moved = 0
    for key in sorted(PRODUCERS):
        digest, counts = PRODUCERS[key]()
        pinned = DISPATCHES.get(key)
        if digest == DIGESTS[key] and counts == pinned:
            print(f"ok     {key}")
        else:
            moved += 1
            print(
                f"MOVED  {key}: {digest} (pinned {DIGESTS[key]}), "
                f"scheduled/dispatched {counts} (pinned {pinned})"
            )
    print(
        f"Python {sys.version.split()[0]}: "
        f"{len(PRODUCERS) - moved}/{len(PRODUCERS)} digests match"
    )
    return 1 if moved else 0


if __name__ == "__main__":  # pragma: no cover - command-line entry point
    sys.exit(main())
