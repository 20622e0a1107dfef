"""The four benchmark workloads: set-up, the timed pass, and its outputs.

Each workload is a batch job: a pass runs it once to completion and the
benchmark times the pass.  Set-up (imports, spec and cluster construction)
is separate from the pass so that ``setup_s`` catches work moved out of the
timed region.  Every pass returns the digests of what it produced; they are
compared with ``reference.json`` and across passes, so a faster pass that
computes something else is caught.

Why each workload exists:

* ``figures`` — the paper reproduction users regenerate: the Fig. 3/4, 5/6
  and 7/8 adapters (none/static/adaptbf each, CSVs exported) plus the Fig. 9
  period sweep.  One OST, at most four jobs: the event kernel and the
  TBF/NRS/OSS data path dominate and the control plane is noise.
* ``swarm`` — 4000 closed-loop mixed read/write clients on 10 OSTs: a large
  calendar and the per-RPC client/network/OST/jobstats path.  The control
  plane is under 1% here, so kernel and data-path changes show and
  control-plane changes must not.
* ``many-tenants`` — 256 single-process jobs striped over 16 OSTs with a
  50 Hz controller per OST: the only workload where the allocation
  algorithm (``core/``) is a large share of the time.
* ``shootout`` — the mechanism-shootout campaign through a durable JSONL
  store at 1 and at 2 worker processes: the campaign plumbing (pool, leases,
  per-commit fsync, per-cell reduction) and the centralized mechanisms.

The harness calls only the pipeline APIs the project keeps: the scenario
and campaign registries, ``cluster.builder.build``,
``cluster.experiment.execute``, ``run_campaign``, ``JsonlStore``, the figure
adapters' ``run`` and ``metrics.export.export_all``.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

WORKLOAD_NAMES = ("figures", "swarm", "many-tenants", "shootout")

#: Every mechanism registered at the time the benchmark was defined, pinned
#: so that registering a new contender does not change the workload.
SHOOTOUT_MECHANISMS = "adaptbf,adaptbf-ewma,none,pid,sdn,static,vc"

#: Workload sizes.  ``full`` is what the benchmark measures; ``smoke`` is a
#: seconds-long stand-in for the self-test, which has no reference digests.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "figures": {"figures": ("fig3", "fig5", "fig7"), "fig9_intervals": None},
        "swarm": {
            "scenario": {"n_clients": 4000, "n_jobs": 8, "n_osts": 10, "duration": 4.0},
            "workload": {"total_mib": 64.0, "chunk_mib": 1.0, "read_fraction": 0.5},
        },
        "many-tenants": {
            "scenario": {
                "n_clients": 256,
                "n_jobs": 256,
                "n_osts": 16,
                "stripe_count": 16,
                "op_mib": 4096.0,
                "window": 2,
                "capacity_mib_s": 256.0,
                "interval_s": 0.02,
                "duration": 6.0,
            },
        },
        "shootout": {"campaign": {"mechanisms": SHOOTOUT_MECHANISMS}},
    },
    "smoke": {
        "figures": {"figures": ("fig5",), "fig9_intervals": (2.0,)},
        "swarm": {
            "scenario": {"n_clients": 200, "n_jobs": 8, "n_osts": 2, "duration": 0.5},
            "workload": {"total_mib": 8.0, "chunk_mib": 1.0, "read_fraction": 0.5},
        },
        "many-tenants": {
            "scenario": {
                "n_clients": 16,
                "n_jobs": 16,
                "n_osts": 4,
                "stripe_count": 4,
                "op_mib": 256.0,
                "window": 2,
                "capacity_mib_s": 256.0,
                "interval_s": 0.02,
                "duration": 0.5,
            },
        },
        "shootout": {
            "campaign": {
                "mechanisms": "none,adaptbf,sdn",
                "data_scale": 0.02,
                "time_scale": 0.02,
            }
        },
    },
}

#: Registered scenario behind each figure adapter, for set-up probes.
FIGURE_SCENARIOS = {
    "fig3": "allocation",
    "fig5": "redistribution",
    "fig7": "recompensation",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Prepared(NamedTuple):
    """What set-up built, plus how long each set-up phase took."""

    state: Any
    import_s: float
    spec_build_s: float
    cluster_build_s: float


class PassOutput(NamedTuple):
    """What one timed pass produced, besides its wall time."""

    #: Simulations the pass attempted and how many of them failed.
    attempted: int
    failed: int
    #: sha256 of every output artifact, by name.
    digests: Dict[str, str]
    #: Deterministic counts read from public results (RPCs, cells, ...).
    counters: Dict[str, float]
    #: Reference-host seconds the harness took around calls into layers.
    timers: Dict[str, float]
    #: Dimensionless measurements (shares of time, speed-ups).
    ratios: Dict[str, float]
    #: Simulated seconds of pass simulations that ran in pool workers, which
    #: the in-process simulation counter cannot see.
    worker_sim_s: float = 0.0


# -- figures -------------------------------------------------------------


def _prepare_figures(size: Dict[str, Any], seed: int, workdir: Path, clock) -> Prepared:
    start = clock.mark()
    from repro.cluster.builder import build
    from repro.experiments import fig3_fig4, fig5_fig6, fig7_fig8, fig9  # noqa: F401
    from repro.metrics.export import export_all  # noqa: F401
    from repro.scenarios import REGISTRY

    import_s, start = clock.since(start), clock.mark()
    # The adapters build their own specs and clusters inside the pass; this
    # repeats that set-up so setup_s measures it.
    specs = [REGISTRY.build(FIGURE_SCENARIOS[name]) for name in size["figures"]]
    spec_s, start = clock.since(start), clock.mark()
    for spec in specs:
        build(spec)
    return Prepared(None, import_s, spec_s, clock.since(start))


def _run_figures(
    size: Dict[str, Any], seed: int, workdir: Path, state: Any, clock
) -> PassOutput:
    from repro.experiments import fig3_fig4, fig5_fig6, fig7_fig8, fig9
    from repro.metrics.export import export_all

    adapters = {"fig3": fig3_fig4, "fig5": fig5_fig6, "fig7": fig7_fig8}
    csv_dir = workdir / "csv"
    export_s = 0.0
    attempted = 0
    for name in size["figures"]:
        comparison = adapters[name].run()
        attempted += len(comparison.results)
        start = clock.mark()
        export_all(comparison.results, csv_dir, prefix=name)
        export_s += clock.since(start)
    intervals = size["fig9_intervals"]
    if intervals is None:
        sweep = fig9.run()
    else:
        sweep = fig9.run(intervals_s=intervals)
    attempted += len(sweep.aggregates)
    # `run fig9 --csv` writes no CSV, so the sweep's aggregates are digested
    # directly (repr keeps every float digit).
    digests = {
        path.name: sha256(path.read_bytes()) for path in sorted(csv_dir.iterdir())
    }
    digests["fig9.aggregates"] = sha256(repr(sweep.aggregates).encode())
    return PassOutput(
        attempted=attempted,
        failed=0,
        digests=digests,
        counters={"csv_files": len(digests) - 1},
        timers={"experiments.export_s": export_s},
        ratios={},
    )


# -- swarm and many-tenants ------------------------------------------------


def _swarm_spec(size: Dict[str, Any], seed: int):
    from repro.scenarios import REGISTRY

    spec = REGISTRY.build("client-swarm", **size["scenario"])
    if "workload" in size:
        spec = spec.with_workload("mixed-rw", size["workload"])
    return spec


def _prepare_cluster(size: Dict[str, Any], seed: int, workdir: Path, clock) -> Prepared:
    start = clock.mark()
    from repro.cluster.builder import build
    from repro.cluster.experiment import execute  # noqa: F401
    from repro.scenarios import REGISTRY  # noqa: F401

    import_s, start = clock.since(start), clock.mark()
    spec = _swarm_spec(size, seed)
    spec_s, start = clock.since(start), clock.mark()
    cluster = build(spec)
    return Prepared(cluster, import_s, spec_s, clock.since(start))


def _run_cluster(
    size: Dict[str, Any], seed: int, workdir: Path, cluster: Any, clock
) -> PassOutput:
    from repro.cluster.experiment import execute

    result = execute(cluster)
    summary = result.summary
    outcome = (
        result.duration_s,
        result.clients_finished,
        summary.aggregate_mib_s,
        sorted(summary.per_job_mib_s.items()),
        sorted(result.job_completion_s.items()),
        result.ost_utilization,
    )
    return PassOutput(
        attempted=1,
        failed=0,
        digests={"result": sha256(repr(outcome).encode())},
        counters={"rpcs_completed": sum(oss.completed_rpcs for oss in cluster.osses)},
        timers={},
        ratios={},
    )


# -- shootout --------------------------------------------------------------


def _shootout_state(size: Dict[str, Any], seed: int, workdir: Path):
    from repro.campaigns import CAMPAIGNS, JsonlStore

    class TimedStore(JsonlStore):
        """A JSONL store that adds up this host's seconds in its commits."""

        commit_s = 0.0

        def commit(self, record) -> None:
            start = time.perf_counter()
            super().commit(record)
            self.commit_s += time.perf_counter() - start

    campaign = CAMPAIGNS.build("mechanism-shootout", seed=seed, **size["campaign"])
    stores = {jobs: TimedStore(workdir / f"store-jobs{jobs}") for jobs in (1, 2)}
    return campaign, stores


def _prepare_shootout(size: Dict[str, Any], seed: int, workdir: Path, clock) -> Prepared:
    start = clock.mark()
    from repro.campaigns import CAMPAIGNS, JsonlStore, run_campaign  # noqa: F401
    from repro.campaigns.artifacts import write_artifacts  # noqa: F401
    from repro.cluster.builder import build

    import_s, start = clock.since(start), clock.mark()
    state = _shootout_state(size, seed, workdir)
    campaign = state[0]
    spec = campaign.resolve(campaign.cells()[0])
    spec_s, start = clock.since(start), clock.mark()
    # Every cell builds its own cluster in the pass; this repeats the first
    # cell's build so setup_s measures it.
    build(spec)
    return Prepared(state, import_s, spec_s, clock.since(start))


def _cell_digest(rows_json: bytes) -> str:
    """Digest of the cells' simulated results, without seeds or spec hash.

    The campaign seed only reaches the cells as recorded seeds (the base
    scenario draws nothing at random), so this digest is the same for every
    ``--seed`` and checks correctness on any seed the benchmark is run with.
    """
    payload = json.loads(rows_json)
    rows = [
        {k: v for k, v in row.items() if k not in ("index", "seed")}
        for row in payload["rows"]
    ]
    return sha256(json.dumps(rows, sort_keys=True).encode())


def _run_shootout(
    size: Dict[str, Any], seed: int, workdir: Path, state: Any, clock
) -> PassOutput:
    from repro.campaigns import CampaignExecutionError, run_campaign
    from repro.campaigns.artifacts import write_artifacts

    campaign, stores = state
    digests: Dict[str, str] = {}
    counters: Dict[str, float] = {"rpcs_completed": 0}
    timers: Dict[str, float] = {"campaigns.store_commit_s": 0.0, "campaigns.plumbing_s": 0.0}
    cell_walls: List[float] = []
    busy = capacity = 0.0
    attempted = failed = 0
    worker_sim_s = 0.0
    for jobs, store in stores.items():
        start = clock.mark()
        try:
            result = run_campaign(campaign, jobs=jobs, store=store)
        except CampaignExecutionError as exc:
            result = exc.result
            failed += len(exc.failures)
        finally:
            store.close()
        raw_wall, wall = clock.raw_since(start), clock.since(start)
        attempted += campaign.n_cells
        out_dir = workdir / f"out-jobs{jobs}"
        write_artifacts(result, out_dir)
        rows_json = (out_dir / "rows.json").read_bytes()
        digests[f"rows.json.jobs{jobs}"] = sha256(rows_json)
        digests[f"cells.jobs{jobs}"] = _cell_digest(rows_json)
        # Cells and commits are timed on this host's clock, slices included,
        # so they are scaled as the whole campaign run was.
        walls = [outcome.wall_s * wall / raw_wall for outcome in result.outcomes]
        cell_walls.extend(walls)
        busy += sum(walls)
        capacity += jobs * wall
        timers["campaigns.plumbing_s"] += wall - sum(walls) / jobs
        timers[f"wall_s.jobs{jobs}"] = wall
        timers["campaigns.store_commit_s"] += store.commit_s * wall / raw_wall
        counters[f"cells.jobs{jobs}"] = len(result.outcomes)
        counters["rpcs_completed"] += sum(row.rpcs_completed for row in result.rows)
        if jobs > 1:
            worker_sim_s += sum(row.duration_s for row in result.rows)
    cell_walls.sort()
    timers["campaigns.cell_wall_s.p50"] = cell_walls[(len(cell_walls) - 1) // 2]
    timers["campaigns.cell_wall_s.max"] = cell_walls[-1]
    return PassOutput(
        attempted=attempted,
        failed=failed,
        digests=digests,
        counters=counters,
        timers=timers,
        ratios={
            "campaigns.worker_idle_frac": 1.0 - busy / capacity,
            "parallel_speedup": timers["wall_s.jobs1"] / timers["wall_s.jobs2"],
        },
        worker_sim_s=worker_sim_s,
    )


class Workload(NamedTuple):
    """``prepare(size, seed, workdir, clock)`` and ``run(size, seed, workdir,
    state, clock)``; ``clock`` is the :class:`calibration.HostSampler` the
    harness runs them under, and times every span they report."""

    prepare: Callable[..., Prepared]
    run: Callable[..., PassOutput]


WORKLOADS: Dict[str, Workload] = {
    "figures": Workload(_prepare_figures, _run_figures),
    "swarm": Workload(_prepare_cluster, _run_cluster),
    "many-tenants": Workload(_prepare_cluster, _run_cluster),
    "shootout": Workload(_prepare_shootout, _run_shootout),
}


def check_outputs(
    name: str, size: str, seed: int, digests: Dict[str, str], reference: Dict
) -> Tuple[bool, List[str]]:
    """Compare a pass's digests with the committed reference.

    Returns ``(matched, problems)``.  Reference digests exist for the full
    size only; ``rows.json`` records the campaign seed, so its byte digest
    is checked for seed 0 and the seed-free cell digest for every seed.
    """
    problems: List[str] = []
    if name == "shootout" and digests["rows.json.jobs1"] != digests["rows.json.jobs2"]:
        problems.append("shootout rows.json differ between --jobs 1 and --jobs 2")
    if size != "full":
        return not problems, problems
    expected = reference.get(name)
    if not expected:
        return False, problems + [f"{name}: reference.json has no digests"]
    for key, want in sorted(expected.items()):
        if key == "rows.json" and seed != 0:
            continue
        got_keys = [k for k in digests if k == key or k.startswith(key + ".jobs")]
        if not got_keys:
            problems.append(f"{name}: no output {key!r}")
        for got_key in got_keys:
            if digests[got_key] != want:
                problems.append(f"{name}: {got_key} differs from the reference")
    return not problems, problems
