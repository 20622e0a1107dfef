"""Golden digests: pinned byte-for-byte outputs of the simulator.

The reproduction's fixed reference is its output: figure CSVs, campaign
``rows.json`` and scenario results must not move unless a change means to
move them.  These tests pin small, fast instances of the paths most likely
to drift under a refactor of the event kernel or the Lustre model:

* a two-cell ``decentralization-tax`` campaign (multi-OST, every
  mechanism's control plane, same-instant transfer starts on two OSTs);
* ``quickstart`` under ``ost-crash`` (requeue, parked I/O threads,
  recovery) and under ``client-churn`` (killed and joining clients);
* a small ``client-swarm`` (hundreds of clients, mixed reads and writes);
* a many-tenant ``client-swarm`` (16 jobs striped over 4 OSTs at 50 Hz
  control), whose digest also covers every OST's control rounds: round
  time, demands, final allocations, the ledger and the rule counters.

A change that moves one of these digests changes what the simulator
computes.  If that is intended, say why in the change description and
re-pin the digest with
``PYTHONPATH=src python tests/cluster/test_golden_outputs.py``.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from repro.campaigns import CAMPAIGNS, run_campaign, write_artifacts
from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.scenarios import REGISTRY

#: sha256 of each pinned output (see the module docstring).
DIGESTS = {
    "client-swarm.many-tenants": "02e0974a8fc24b8ea40b5fda192f740fc0b0d1c5258a908af74a4d2eace79486",
    "client-swarm.small": "7fc92205e5336bbdf07e5997898494b28f35e3ccb25ea3f670b92177f76b9d32",
    "decentralization-tax.rows.json": "3e6b8aaf373bacddba4de410528a8c430b06435fb0529b3f4bbf941829923ce6",
    "quickstart.client-churn": "de6fcdaa47e33f846ade790041820fa4dbfd51f544ead235e748b041fa150222",
    "quickstart.ost-crash": "dca65e2e596b4ce399f5ede560b060a6fcaa6189fc78b64d489d1af61b3fbf03",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _result_digest(spec, control_plane: bool = False) -> str:
    """Digest everything a run reports plus every RPC's lifecycle.

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
    return _sha256(repr(outcome).encode())


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


def _campaign_rows_digest() -> str:
    campaign = CAMPAIGNS.build("decentralization-tax")
    result = run_campaign(campaign, jobs=1, max_cells=2)
    with tempfile.TemporaryDirectory() as out:
        written = write_artifacts(result, out)
        return _sha256(Path(written["rows"]).read_bytes())


def _quickstart(fault: str) -> str:
    return _result_digest(REGISTRY.build("quickstart").with_fault(fault))


def _small_swarm() -> str:
    spec = REGISTRY.build(
        "client-swarm", n_clients=240, n_jobs=4, n_osts=2, op_mib=2.0, duration=1.0
    ).with_workload("mixed-rw", {"read_fraction": 0.25})
    return _result_digest(spec)


def _many_tenants() -> str:
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


PRODUCERS = {
    "client-swarm.many-tenants": _many_tenants,
    "decentralization-tax.rows.json": _campaign_rows_digest,
    "quickstart.ost-crash": lambda: _quickstart("ost-crash"),
    "quickstart.client-churn": lambda: _quickstart("client-churn"),
    "client-swarm.small": _small_swarm,
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_pinned_digest(name):
    assert PRODUCERS[name]() == DIGESTS[name], (
        f"{name} moved: the simulator's output changed"
    )


if __name__ == "__main__":  # pragma: no cover - re-pinning helper
    for key in sorted(PRODUCERS):
        print(f'    "{key}": "{PRODUCERS[key]()}",')
