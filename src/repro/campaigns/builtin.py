"""Built-in campaign registrations.

The paper's evaluation sweeps, declared once through the campaign engine:

* ``freq-sweep``  — Fig. 9's allocation-period axis over the §IV-F workload
  (:mod:`repro.experiments.fig9` runs through this campaign);
* ``burst-grid``  — burst intensity × priority mix over the seeded
  burst-storm scenario (per-cell derived seeds vary the storm);
* ``scale-osts``  — OST count × per-OST capacity over the decentralized
  multi-OST scenario;
* ``mechanism-shootout`` — every registered bandwidth mechanism head-to-head
  on one contended workload: the §IV-C comparison generalized to the whole
  mechanism registry (throughput / fairness / latency per mechanism);
* ``workload-shootout`` — one mechanism across every registered *workload*
  pattern: the reserved ``workload`` axis swaps each cell's demand shape
  (sequential, bursty, Poisson, on/off, diurnal, trace replay, ...) over a
  fixed contention structure;
* ``chaos-shootout`` — every registered mechanism under a registered fault
  (OST crash by default): the reserved ``fault``/``fault_params`` axis
  subjects one contended workload to a disturbance window and ranks the
  mechanisms by recovery time and fairness-under-failure;
* ``decentralization-tax`` — every registered mechanism over a
  control-plane latency × OST count × workload grid: the reserved
  ``mechanism_params`` axis sweeps the centralized ``sdn`` controller's
  latency while the decentralized contenders serve as flat references,
  ranked per latency step by the campaign report.

Axis values arrive as comma-separated factory parameters so any grid is
reshapeable from the CLI (``--param intervals=0.1,0.25``); defaults target
the bench scale so a full campaign finishes in seconds.
"""

from __future__ import annotations

from typing import Tuple

from repro.campaigns.registry import CAMPAIGNS
from repro.campaigns.spec import CampaignSpec, ParameterAxis
from repro.core.mechanism import MECHANISMS
from repro.experiments import fig9
from repro.registry import normalize_name
from repro.scenarios.builtin import BENCH_SCALE
from repro.workloads.registry import WORKLOADS

__all__ = ["CAMPAIGNS"]


def _floats(csv: str, param: str) -> Tuple[float, ...]:
    try:
        values = tuple(float(v) for v in csv.split(",") if v.strip())
    except ValueError:
        raise ValueError(
            f"parameter {param!r}: expected comma-separated numbers, "
            f"got {csv!r}"
        ) from None
    if not values:
        raise ValueError(f"parameter {param!r} must list at least one value")
    return values


def _ints(csv: str, param: str) -> Tuple[int, ...]:
    return tuple(int(v) for v in _floats(csv, param))


@CAMPAIGNS.register(
    "freq-sweep",
    description="Fig. 9: aggregate throughput vs token allocation period",
)
def _freq_sweep(
    intervals: str = "",
    data_scale: float = BENCH_SCALE,
    time_scale: float = BENCH_SCALE,
    heavy_procs: int = 16,
    window: int = 8,
    capacity_mib_s: float = 1024.0,
    seed: int = 0,
) -> CampaignSpec:
    """§IV-H through the campaign engine: one cell per observation period.

    ``intervals`` lists the allocation periods in simulated seconds,
    already scaled; when empty, the paper's 100 ms – 2 s axis is scaled by
    ``time_scale`` (matching how Fig. 9 keeps the ratio of control period
    to burst cadence).
    """
    if intervals.strip():
        values = _floats(intervals, "intervals")
    else:
        values = tuple(i * time_scale for i in fig9.PAPER_INTERVALS_S)
    return CampaignSpec(
        name="freq-sweep",
        scenario=fig9.SCENARIO,
        axes=(ParameterAxis("interval_s", values),),
        base_params={
            "data_scale": data_scale,
            "time_scale": time_scale,
            "heavy_procs": heavy_procs,
            "window": window,
            "capacity_mib_s": capacity_mib_s,
        },
        seed=seed,
        description=(
            "Fig. 9 reproduction: the §IV-F workload per allocation period"
        ),
    )


@CAMPAIGNS.register(
    "burst-grid",
    description="burst intensity × priority mix over the seeded burst storm",
)
def _burst_grid(
    scales: str = "0.05,0.1",
    tenants: str = "4,8",
    with_hog: bool = True,
    duration_s: float = 40.0,
    time_scale: float = BENCH_SCALE,
    capacity_mib_s: float = 1024.0,
    seed: int = 0,
) -> CampaignSpec:
    """Grid over burst volume (``data_scale``) × tenant count (``n_jobs``).

    Each cell's storm is drawn from its own derived seed, so the grid also
    samples different randomized priority mixes; pin one mix by registering
    with ``seed`` in ``base_params`` instead.
    """
    return CampaignSpec(
        name="burst-grid",
        scenario="burst-storm",
        axes=(
            ParameterAxis("data_scale", _floats(scales, "scales")),
            ParameterAxis("n_jobs", _ints(tenants, "tenants")),
        ),
        base_params={
            "with_hog": with_hog,
            "duration_s": duration_s,
            "time_scale": time_scale,
            "capacity_mib_s": capacity_mib_s,
        },
        seed=seed,
        description=(
            "many-tenant contention: burst volume × tenant count, one "
            "seeded storm per cell"
        ),
    )


@CAMPAIGNS.register(
    "scale-osts",
    description="decentralization scaling: OST count × per-OST capacity",
)
def _scale_osts(
    osts: str = "1,2,4",
    capacities: str = "128,256",
    file_mib: float = 64.0,
    procs: int = 4,
    science_nodes: int = 6,
    duration: float = 3.0,
    seed: int = 0,
) -> CampaignSpec:
    """Grid over ``n_osts`` × ``capacity_mib_s`` on the multi-OST scenario.

    One independent controller per OST (§II-B), so this maps how aggregate
    throughput and fairness scale as targets are added or sped up.
    """
    return CampaignSpec(
        name="scale-osts",
        scenario="multiost",
        axes=(
            ParameterAxis("n_osts", _ints(osts, "osts")),
            ParameterAxis("capacity_mib_s", _floats(capacities, "capacities")),
        ),
        base_params={
            "stripe_count": 1,
            "file_mib": file_mib,
            "procs": procs,
            "science_nodes": science_nodes,
            "duration": duration,
        },
        seed=seed,
        description=(
            "per-OST decentralization: cluster width × target speed grid"
        ),
    )


@CAMPAIGNS.register(
    "mechanism-shootout",
    description="every registered bandwidth mechanism on one workload",
)
def _mechanism_shootout(
    mechanisms: str = "",
    scenario: str = "recompensation",
    data_scale: float = BENCH_SCALE,
    time_scale: float = BENCH_SCALE,
    capacity_mib_s: float = 1024.0,
    seed: int = 0,
) -> CampaignSpec:
    """One cell per mechanism on the §IV-F contended workload (by default).

    ``mechanisms`` lists registry names (comma-separated); empty means
    *every* registered mechanism, so new contenders join the shootout the
    moment they register.  The campaign report is the per-mechanism
    throughput/fairness/latency comparison table.
    """
    if mechanisms.strip():
        names = tuple(
            normalize_name(m) for m in mechanisms.split(",") if m.strip()
        )
        for name in names:
            MECHANISMS.get(name)  # fail fast on unknown contenders
    else:
        names = tuple(MECHANISMS.names())
    if not names:
        raise ValueError("parameter 'mechanisms' must list at least one name")
    # Scenarios differ in scale knobs; forward only what this one accepts
    # so any registered scenario can host the shootout.
    from repro.scenarios import REGISTRY

    accepted = REGISTRY.get(scenario).params
    base = {
        key: value
        for key, value in (
            ("data_scale", data_scale),
            ("time_scale", time_scale),
            ("capacity_mib_s", capacity_mib_s),
        )
        if key in accepted
    }
    return CampaignSpec(
        name="mechanism-shootout",
        scenario=scenario,
        axes=(ParameterAxis("mechanism", names),),
        base_params=base,
        seed=seed,
        description=(
            "head-to-head mechanism comparison: throughput, fairness and "
            "tail latency per registered mechanism"
        ),
    )


@CAMPAIGNS.register(
    "chaos-shootout",
    description="every registered mechanism under a registered fault",
)
def _chaos_shootout(
    mechanisms: str = "",
    fault: str = "ost-crash",
    fault_start_s: float = 0.4,
    fault_duration_s: float = 0.4,
    scenario: str = "quickstart",
    duration_s: float = 4.0,
    seed: int = 0,
) -> CampaignSpec:
    """One cell per mechanism, each run through the same disturbance.

    The reserved ``fault`` axis attaches the named registered injector to
    every cell (:data:`~repro.faults.FAULTS`; seeded injectors inherit each
    cell's derived seed), so the sweep answers the question §IV's steady
    workloads cannot: which mechanism re-converges fastest when an OST
    crashes, degrades, or the network partitions mid-run?  The campaign
    report is the ranked recovery-time / fairness-under-failure table, and
    rows are byte-identical across ``--jobs`` like any other campaign.

    Parameters
    ----------
    mechanisms:
        Comma-separated mechanism registry names; empty pits *every*
        registered mechanism against the fault.
    fault:
        Registered fault injector every cell runs under.
    fault_start_s / fault_duration_s:
        Disturbance window, forwarded as ``fault_params`` overrides
        (injectors share the ``start_s``/``duration_s`` vocabulary).
    scenario:
        Base registered scenario providing the contended workload.
    duration_s:
        Simulated-duration cap so a cell whose clients never re-finish
        (e.g. under a long partition) still terminates; 0 disables it.
    seed:
        Campaign seed; derives each cell's seed (churn victim draws).
    """
    if mechanisms.strip():
        names = tuple(
            normalize_name(m) for m in mechanisms.split(",") if m.strip()
        )
        for name in names:
            MECHANISMS.get(name)  # fail fast on unknown contenders
    else:
        names = tuple(MECHANISMS.names())
    if not names:
        raise ValueError("parameter 'mechanisms' must list at least one name")
    from repro.faults import FAULTS

    entry = FAULTS.get(fault)  # fail fast on unknown faults
    fault_params = {
        key: value
        for key, value in (
            ("start_s", fault_start_s),
            ("duration_s", fault_duration_s),
        )
        if key in entry.params
    }
    from repro.scenarios import REGISTRY

    accepted = REGISTRY.get(scenario).params
    base = {"fault": entry.name, "fault_params": fault_params}
    if duration_s:
        if "duration" in accepted:
            base["duration"] = duration_s
        elif "duration_s" in accepted:
            base["duration_s"] = duration_s
        else:
            raise ValueError(
                f"scenario {scenario!r} takes no duration cap, so "
                f"duration_s={duration_s:g} cannot be applied; pass "
                "duration_s=0 to run cells to client completion"
            )
    return CampaignSpec(
        name="chaos-shootout",
        scenario=scenario,
        axes=(ParameterAxis("mechanism", names),),
        base_params=base,
        seed=seed,
        description=(
            f"fault tolerance head-to-head: every mechanism under "
            f"{entry.name!r} on scenario {scenario!r} (recovery time, "
            "fairness under failure, dropped/retried RPCs)"
        ),
    )


@CAMPAIGNS.register(
    "decentralization-tax",
    description=(
        "control-plane latency × OST count × workload, every mechanism "
        "as contrast"
    ),
)
def _decentralization_tax(
    mechanisms: str = "",
    latencies: str = "0.0,0.05,0.2",
    osts: str = "2",
    workloads: str = "native,burst",
    duration_s: float = 3.0,
    seed: int = 0,
) -> CampaignSpec:
    """The figure the paper doesn't have: what centralization actually costs.

    Every registered mechanism runs the same contended multi-OST cells
    while a ``mechanism_params`` axis sweeps the centralized controller's
    control-plane latency.  The swept ``{"ctrl_latency_s": …}`` override
    only bites mechanisms that have the knob (``sdn``); the decentralized
    contenders ride the same axis unchanged and serve as the flat
    reference lines.  The campaign report ranks mechanisms per latency
    step — the ``sdn`` rows slide down the ranking as the control plane
    slows, which *is* the decentralization tax, quantified per cell by
    the ``rule_lag_s`` / ``overshoot_bytes`` / ``reservation_util``
    columns.

    Parameters
    ----------
    mechanisms:
        Comma-separated mechanism registry names; empty means *every*
        registered mechanism, so new contenders join automatically.
    latencies:
        One-way control-plane latencies (simulated seconds) for the
        ``mechanism_params`` axis.
    osts:
        OST counts for the cluster-width axis (one controller per OST for
        the decentralized mechanisms; one shared controller for ``sdn``).
    workloads:
        Registered workload patterns per cell — the steady/bursty
        contrast decides how much a stale view costs.  The special name
        ``native`` keeps the scenario's own mixed workload (axis value
        ``None``: the reserved ``workload`` param skips the rebuild).
    duration_s:
        Simulated-duration cap per cell (0 runs cells to completion).
    seed:
        Campaign seed; derives each cell's workload seed.
    """
    if mechanisms.strip():
        names = tuple(
            normalize_name(m) for m in mechanisms.split(",") if m.strip()
        )
        for name in names:
            MECHANISMS.get(name)  # fail fast on unknown contenders
    else:
        names = tuple(MECHANISMS.names())
    if not names:
        raise ValueError("parameter 'mechanisms' must list at least one name")
    workload_names = tuple(
        None if normalize_name(w) == "native" else normalize_name(w)
        for w in workloads.split(",")
        if w.strip()
    )
    if not workload_names:
        raise ValueError("parameter 'workloads' must list at least one name")
    for name in workload_names:
        if name is not None:
            WORKLOADS.get(name)  # fail fast on unknown patterns
    latency_values = tuple(
        {"ctrl_latency_s": value}
        for value in _floats(latencies, "latencies")
    )
    base = {"duration": duration_s} if duration_s else {}
    return CampaignSpec(
        name="decentralization-tax",
        scenario="multiost",
        axes=(
            ParameterAxis("mechanism", names),
            ParameterAxis("mechanism_params", latency_values),
            ParameterAxis("n_osts", _ints(osts, "osts")),
            ParameterAxis("workload", workload_names),
        ),
        base_params=base,
        seed=seed,
        description=(
            "the decentralization tax, measured: every mechanism over a "
            "control-plane latency × cluster width × demand-shape grid"
        ),
    )


@CAMPAIGNS.register(
    "workload-shootout",
    description="one mechanism across every registered workload pattern",
)
def _workload_shootout(
    workloads: str = "",
    scenario: str = "quickstart",
    mechanism: str = "adaptbf",
    duration_s: float = 6.0,
    seed: int = 0,
) -> CampaignSpec:
    """One cell per workload pattern over a fixed contention structure.

    The reserved ``workload`` axis rebuilds every process of the base
    scenario from the named :data:`~repro.workloads.registry.WORKLOADS`
    entry (factory defaults, with each cell's derived seed flowing into
    seeded patterns), so the sweep answers "how does the mechanism behave
    as demand turns sequential / bursty / memoryless / phased?" — the
    irregular-demand evaluation the paper's fixed Filebench shapes could
    not express.

    Parameters
    ----------
    workloads:
        Comma-separated workload registry names; empty sweeps *every*
        registered workload, so new patterns join the shootout the moment
        they register.
    scenario:
        Base registered scenario providing the job/priority structure.
    mechanism:
        Bandwidth mechanism every cell runs under.
    duration_s:
        Simulated-duration cap applied to every cell (open-ended
        workloads would otherwise run to completion at whatever volume
        their defaults imply).  The base scenario must expose a
        ``duration``/``duration_s`` knob to receive it; scenarios
        without one are rejected unless the cap is disabled with 0.
    seed:
        Campaign seed; each cell derives its own workload seed from it.
    """
    if workloads.strip():
        names = tuple(
            normalize_name(w) for w in workloads.split(",") if w.strip()
        )
        for name in names:
            WORKLOADS.get(name)  # fail fast on unknown patterns
    else:
        names = tuple(WORKLOADS.names())
    if not names:
        raise ValueError("parameter 'workloads' must list at least one name")
    from repro.scenarios import REGISTRY

    accepted = REGISTRY.get(scenario).params
    base = {"mechanism": mechanism}
    if duration_s:
        if "duration" in accepted:
            base["duration"] = duration_s
        elif "duration_s" in accepted:
            base["duration_s"] = duration_s
        else:
            raise ValueError(
                f"scenario {scenario!r} takes no duration cap, so "
                f"duration_s={duration_s:g} cannot be applied; pass "
                "duration_s=0 to run cells to workload completion"
            )
    return CampaignSpec(
        name="workload-shootout",
        scenario=scenario,
        axes=(ParameterAxis("workload", names),),
        base_params=base,
        seed=seed,
        description=(
            "demand-shape sweep: every registered workload pattern on "
            f"scenario {scenario!r} under {mechanism!r}"
        ),
    )
