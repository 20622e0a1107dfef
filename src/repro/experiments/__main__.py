"""Unified experiment CLI over the scenario registry.

Usage::

    python -m repro.experiments list                    # everything runnable
    python -m repro.experiments describe burst-storm    # spec + parameters
    python -m repro.experiments run quickstart --duration 2
    python -m repro.experiments run burst-storm --param n_jobs=10 --param seed=7
    python -m repro.experiments run fig3                # E1 (Fig. 3-4) report
    python -m repro.experiments run fig5 --full         # E2 at paper scale
    python -m repro.experiments run fig7 --csv out/     # E3 + CSV export
    python -m repro.experiments run all                 # every figure, in order
    python -m repro.experiments campaign list           # registered sweeps
    python -m repro.experiments campaign run freq-sweep --jobs 4 --out out/
    python -m repro.experiments campaign run burst-grid --jobs 4 \\
        --store sweeps/burst --progress            # durable, per-cell commits
    python -m repro.experiments campaign status sweeps/burst   # durable state
    python -m repro.experiments campaign resume sweeps/burst --jobs 4 \\
        --out out/                                 # finish a killed campaign
    python -m repro.experiments mechanism list          # registered mechanisms
    python -m repro.experiments mechanism describe pid  # knobs + behaviour
    python -m repro.experiments run quickstart --mechanism pid \\
        --mechanism-param kp=0.8                        # any registered mech
    python -m repro.experiments campaign run mechanism-shootout --jobs 2
    python -m repro.experiments workload list           # registered patterns
    python -m repro.experiments workload describe poisson
    python -m repro.experiments run quickstart --workload poisson \\
        --workload-param rate_per_s=20                  # any registered load
    python -m repro.experiments run trace-replay        # bundled trace replay
    python -m repro.experiments campaign run workload-shootout --jobs 2
    python -m repro.experiments fault list              # registered faults
    python -m repro.experiments fault describe ost-crash
    python -m repro.experiments run quickstart --fault ost-crash \\
        --fault-param start_s=0.4                       # any registered fault
    python -m repro.experiments campaign run chaos-shootout --jobs 2

Figure names (``fig3`` … ``fig9``, ``overhead``, ``all``) given to ``run``
invoke the paper's reproduction adapters — the three-mechanism comparison,
report and shape checks for that figure.  Any other name is looked up in
the scenario registry, built with ``--param k=v`` overrides, and run
through the declarative pipeline.  ``campaign``, ``mechanism``,
``workload`` and ``fault`` each have ``list`` and ``describe``, served by
one handler pair over :data:`REGISTRY_COMMANDS`.

Exit status is non-zero if any figure shape check fails, so the runner
doubles as a reproduction gate in CI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.analysis.cli import add_lint_subparser
from repro.campaigns import (
    CAMPAIGNS,
    CampaignExecutionError,
    CampaignSpec,
    SpecHashMismatchError,
    StoreError,
    StoreNotEmptyError,
    open_store,
    queue_status,
    run_campaign,
    write_artifacts,
)
from repro.core.mechanism import MECHANISMS
from repro.experiments import fig3_fig4, fig5_fig6, fig7_fig8, fig9, overhead
from repro.faults import FAULTS
from repro.metrics.export import export_all, export_sweep
from repro.metrics.report import (
    format_campaign_report,
    format_chaos_table,
    format_decentralization_table,
    format_mechanism_table,
    format_run_report,
)
from repro.registry import FactoryRegistry, RegisteredFactory
from repro.scenarios import REGISTRY, run_scenario
from repro.workloads.registry import WORKLOADS

#: Figure name → adapter module; each module's ``SCENARIO`` names the
#: registered scenario its workload comes from.
FIGURE_ADAPTERS = {
    "fig3": fig3_fig4,
    "fig4": fig3_fig4,
    "fig5": fig5_fig6,
    "fig6": fig5_fig6,
    "fig7": fig7_fig8,
    "fig8": fig7_fig8,
    "fig9": fig9,
}

#: Scenario parameters figure adapters accept via --param.
FIGURE_SCALE_PARAMS = ("data_scale", "time_scale", "heavy_procs", "window")

#: Names ``run`` hands to the figure adapters instead of the registry.
FIGURE_COMMANDS = set(FIGURE_ADAPTERS) | {"overhead", "all"}


class RegistryCommand(NamedTuple):
    """A registry served by ``<kind> list`` and ``<kind> describe``."""

    registry: FactoryRegistry
    #: Help of the ``<kind>`` subcommand.
    help: str
    #: Heading of the registry's section in the top-level ``list``.
    section: str
    #: First line of ``<kind> list``.
    header: str
    #: Closing usage lines of ``<kind> list``.
    footer: str
    #: Help of ``<kind> describe``.
    describe_help: str
    #: Text ``<kind> list`` appends to an entry's description.
    suffix: Optional[Callable[[RegisteredFactory], str]] = None


def _campaign_cells(entry: RegisteredFactory) -> str:
    campaign = entry.build()
    return f" [{campaign.n_cells} cells over {campaign.scenario!r}]"


#: One entry per registry with list/describe commands, keyed by the
#: registry's kind (which is also the command name), in ``list`` order.
REGISTRY_COMMANDS = {
    command.registry.kind: command
    for command in (
        RegistryCommand(
            CAMPAIGNS,
            help="declarative parameter sweeps (campaign engine)",
            section="registered campaigns",
            header="registered campaigns (parameter sweeps through the engine):",
            footer="run with: python -m repro.experiments campaign run <name> "
            "--jobs N [--param k=v ...] [--out DIR]",
            describe_help="show a campaign's axes, parameters and cells",
            suffix=_campaign_cells,
        ),
        RegistryCommand(
            MECHANISMS,
            help="pluggable bandwidth-control mechanisms",
            section="registered mechanisms",
            header="registered bandwidth mechanisms (select with --mechanism):",
            footer="run with:   python -m repro.experiments run <scenario> "
            "--mechanism <name> [--mechanism-param k=v ...]\n"
            "sweep with: python -m repro.experiments campaign run "
            "mechanism-shootout [--param mechanisms=a,b ...]",
            describe_help="show a mechanism's parameters and behaviour",
        ),
        RegistryCommand(
            WORKLOADS,
            help="pluggable workload patterns (the demand axis)",
            section="registered workload patterns",
            header="registered workload patterns (select with --workload):",
            footer="run with:   python -m repro.experiments run <scenario> "
            "--workload <name> [--workload-param k=v ...]\n"
            "sweep with: python -m repro.experiments campaign run "
            "workload-shootout [--param workloads=a,b ...]",
            describe_help="show a workload's parameters and behaviour",
        ),
        RegistryCommand(
            FAULTS,
            help="pluggable fault injectors (the disturbance axis)",
            section="registered fault injectors",
            header="registered fault injectors (select with --fault):",
            footer="run with:   python -m repro.experiments run <scenario> "
            "--fault <name> [--fault-param k=v ...]\n"
            "sweep with: python -m repro.experiments campaign run "
            "chaos-shootout [--param fault=<name> ...]",
            describe_help="show a fault's parameters and behaviour",
        ),
    )
}


def _split_params(pairs: Optional[List[str]]) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--param expects k=v, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _figure_params(args, modules, params: Dict[str, str]) -> Dict[str, Any]:
    """The scenario parameters ``modules`` run with: ``--full``, then
    ``--param``, checked by building each module's scenario once."""
    known = {key: params.pop(key) for key in FIGURE_SCALE_PARAMS if key in params}
    scenarios = sorted({module.SCENARIO for module in modules})
    try:
        # Every figure scenario gives these parameters the same types.
        overrides = REGISTRY.coerce(scenarios[0], known)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if params:
        raise SystemExit(
            f"figure adapters accept only {FIGURE_SCALE_PARAMS} as --param; "
            f"got {sorted(params)}"
        )
    if args.full:
        overrides = {"data_scale": 1.0, "time_scale": 1.0, **overrides}
    try:
        for scenario in scenarios:
            REGISTRY.build(scenario, **overrides)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return overrides


def _run_figure(name: str, module, params: Dict[str, Any], csv_dir) -> bool:
    result = module.run(**params)
    print(module.report(result))
    if csv_dir:
        if module is fig9:
            written = str(export_sweep(result, Path(csv_dir) / "fig9_sweep.csv"))
        else:
            paths = export_all(result.results, csv_dir, prefix=name).values()
            written = ", ".join(str(p) for p in paths)
        print(f"\nCSV written: {written}")
    return all(check.passed for check in module.check_shapes(result))


def _run_overhead() -> bool:
    result = overhead.run()
    print(overhead.report(result))
    return all(check.passed for check in overhead.check_shapes(result))


def _run_figures(name: str, args, params: Dict[str, str]) -> bool:
    if (
        args.duration is not None
        or args.mechanism is not None
        or args.mechanism_param
        or args.workload is not None
        or args.workload_param
        or args.fault is not None
        or args.fault_param
    ):
        raise SystemExit(
            "--duration/--mechanism/--mechanism-param/--workload/"
            "--workload-param/--fault/--fault-param apply to registered "
            "scenarios; figure adapters always run their paper-defined "
            "workload and duration under all three mechanisms (scale them "
            "with --param time_scale=...)"
        )
    if name == "overhead" and (args.full or params or args.csv):
        raise SystemExit(
            "overhead times the allocation algorithm directly and takes "
            "no --full, --param or --csv options"
        )
    if name == "overhead":
        return _run_overhead()
    # The first name of each adapter to run, in figure order.
    figures: Dict[Any, str] = {}
    for fig_name in FIGURE_ADAPTERS if name == "all" else (name,):
        figures.setdefault(FIGURE_ADAPTERS[fig_name], fig_name)
    figure_params = _figure_params(args, figures, params)
    if name != "all":
        return _run_figure(name, FIGURE_ADAPTERS[name], figure_params, args.csv)
    ok = True
    for module, fig_name in figures.items():
        ok &= _run_figure(fig_name, module, figure_params, args.csv)
        print()
    ok &= _run_overhead()
    return ok


def _run_registered(name: str, args, params: Dict[str, str]) -> bool:
    try:
        spec = REGISTRY.build(name, **REGISTRY.coerce(name, params))
        if args.duration is not None:
            spec = spec.with_run(duration_s=args.duration)
        mech_params = _split_params(getattr(args, "mechanism_param", None))
        # One with_policy call: params are coerced against the mechanism
        # actually taking effect, never a stale one.
        policy_changes = {}
        if args.mechanism is not None:
            policy_changes["mechanism"] = args.mechanism
        if mech_params:
            target = (
                args.mechanism
                if args.mechanism is not None
                else spec.policy.mechanism
            )
            policy_changes["mechanism_params"] = MECHANISMS.coerce(
                target, mech_params
            )
        if policy_changes:
            spec = spec.with_policy(**policy_changes)
            # Factories validate parameter *values* (latencies, factors)
            # at build time; resolve once now so a bad value is a
            # one-line exit here, not a traceback mid-build.
            MECHANISMS.build(
                spec.policy.mechanism, **dict(spec.policy.mechanism_params)
            )
        wl_params = _split_params(getattr(args, "workload_param", None))
        if args.workload is not None:
            spec = spec.with_workload(
                args.workload, WORKLOADS.coerce(args.workload, wl_params)
            )
        elif wl_params:
            raise SystemExit(
                "--workload-param requires --workload NAME (see "
                "`workload list`)"
            )
        fault_params = _split_params(getattr(args, "fault_param", None))
        if args.fault is not None:
            spec = spec.with_fault(
                args.fault, FAULTS.coerce(args.fault, fault_params)
            )
        elif fault_params:
            raise SystemExit(
                "--fault-param requires --fault NAME (see `fault list`)"
            )
    except (KeyError, ValueError) as exc:
        # KeyError's str() wraps the message in repr quotes; unwrap it.
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None
    result = run_scenario(spec)
    print(format_run_report(result))
    if args.csv:
        written = export_all(
            {result.mechanism: result}, args.csv, prefix=spec.name
        )
        print(f"\nCSV written: {', '.join(str(p) for p in written.values())}")
    return True


def _cmd_run(args) -> int:
    name = args.scenario.lower().replace("_", "-")
    params = _split_params(args.param)
    if name.replace("-", "") in FIGURE_COMMANDS:
        ok = _run_figures(name.replace("-", ""), args, params)
    else:
        if args.full:
            raise SystemExit(
                "--full applies to figure adapters; use "
                "--param data_scale=1 --param time_scale=1 instead"
            )
        ok = _run_registered(name, args, params)
    if not ok:
        print("\nSOME SHAPE CHECKS FAILED", file=sys.stderr)
        return 1
    return 0


def _campaign_progress(outcome, total, counter) -> None:
    counter[0] += 1
    pairs = " ".join(f"{k}={v!r}" for k, v in sorted(outcome.params.items()))
    print(
        f"  [{counter[0]}/{total}] cell {outcome.index}: {pairs} -> "
        f"{outcome.row.aggregate_mib_s:.1f} MiB/s "
        f"({outcome.wall_s:.2f}s)"
    )


def _report_campaign(campaign, result, args) -> None:
    print()
    print(format_campaign_report(result))
    axis_params = {axis.param for axis in campaign.axes}
    if "mechanism" in axis_params:
        print()
        print(format_mechanism_table(result))
    if "mechanism" in axis_params and "mechanism_params" in axis_params:
        print()
        print(format_decentralization_table(result))
    has_fault = campaign.base_params.get("fault") or any(
        axis.param == "fault" for axis in campaign.axes
    )
    if has_fault and result.outcomes:
        print()
        print(format_chaos_table(result))
    if args.out:
        written = write_artifacts(result, args.out)
        print(
            "\nartifacts written: "
            + ", ".join(str(written[k]) for k in sorted(written))
        )


def _drive_campaign(campaign, args, store, resume: bool) -> int:
    """Shared engine behind ``campaign run`` and ``campaign resume``."""
    print(
        f"campaign {campaign.name!r}: {campaign.n_cells} cell(s) over "
        f"scenario {campaign.scenario!r}, jobs={args.jobs}, "
        f"spec hash {campaign.spec_hash()}"
        + (f", store {store.kind} at {store.location}" if store else "")
    )
    counter = [0]
    progress = (
        (lambda outcome, total: _campaign_progress(outcome, total, counter))
        if args.progress
        else None
    )
    kwargs = {}
    if getattr(args, "lease_ttl", None):
        kwargs["lease_ttl"] = args.lease_ttl
    try:
        result = run_campaign(
            campaign,
            jobs=args.jobs,
            progress=progress,
            store=store,
            resume=resume,
            max_cells=getattr(args, "max_cells", None),
            **kwargs,
        )
    except (SpecHashMismatchError, StoreNotEmptyError, StoreError) as exc:
        raise SystemExit(str(exc)) from None
    except ValueError as exc:
        # Cells resolve before any lease is taken, so a stored campaign
        # naming a parameter its scenario no longer accepts fails here
        # with the store untouched.
        raise SystemExit(f"campaign {campaign.name!r}: {exc}") from None
    except CampaignExecutionError as exc:
        # Partial progress is durable; report what committed, then fail.
        _report_campaign(campaign, exc.result, args)
        print(f"\nERROR: {exc}", file=sys.stderr)
        return 1
    _report_campaign(campaign, result, args)
    if not result.complete:
        remaining = campaign.n_cells - len(result.outcomes)
        print(
            f"\ncampaign incomplete: {remaining} cell(s) still pending "
            "(resume with `campaign resume "
            + (store.location if store else "--store ...")
            + "`)"
        )
    return 0


def _cmd_campaign_run(args) -> int:
    name = args.campaign.lower().replace("_", "-")
    params = _split_params(args.param)
    try:
        campaign = CAMPAIGNS.build(name, **CAMPAIGNS.coerce(name, params))
    except (KeyError, ValueError) as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None
    if args.resume and not args.store:
        raise SystemExit("--resume requires --store PATH")
    store = None
    if args.store:
        try:
            store = open_store(args.store)
        except StoreError as exc:
            raise SystemExit(str(exc)) from None
    try:
        return _drive_campaign(campaign, args, store, resume=args.resume)
    finally:
        if store is not None:
            store.close()


def _cmd_campaign_status(args) -> int:
    try:
        store = open_store(args.store)
    except StoreError as exc:
        raise SystemExit(str(exc)) from None
    try:
        status = queue_status(store)
    except StoreError as exc:
        raise SystemExit(str(exc)) from None
    finally:
        store.close()
    print(status.describe())
    return 0


def _cmd_campaign_resume(args) -> int:
    try:
        store = open_store(args.store)
    except StoreError as exc:
        raise SystemExit(str(exc)) from None
    try:
        identity = store.campaign()
        if identity is None:
            raise SystemExit(
                f"store at {store.location} holds no campaign yet; start "
                "one with `campaign run <name> --store ...`"
            )
        campaign = CampaignSpec.from_json_dict(identity[1])
        return _drive_campaign(campaign, args, store, resume=True)
    finally:
        store.close()


def _print_entries(
    registry: FactoryRegistry,
    suffix: Optional[Callable[[RegisteredFactory], str]] = None,
) -> None:
    for name in registry.names():
        entry = registry.get(name)
        extra = suffix(entry) if suffix else ""
        print(f"  {name:18s} {entry.description}{extra}")


def _cmd_registry_list(args) -> int:
    command = REGISTRY_COMMANDS[args.command]
    print(command.header)
    _print_entries(command.registry, command.suffix)
    print()
    print(command.footer)
    return 0


def _cmd_registry_describe(args) -> int:
    try:
        # The registry normalizes names itself (repro.registry.normalize_name).
        print(REGISTRY_COMMANDS[args.command].registry.describe(args.name))
    except (KeyError, ValueError) as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None
    return 0


def _cmd_list(_args) -> int:
    print("figure adapters (paper reproduction, 3-mechanism comparison):")
    seen = {}
    for name, module in FIGURE_ADAPTERS.items():
        seen.setdefault(module, []).append(name)
    for module, names in seen.items():
        joined = "/".join(names)
        doc = (module.__doc__ or "").strip().split("\n")[0]
        print(f"  {joined:18s} {doc}")
    print(f"  {'overhead':18s} §IV-G allocation-overhead timing (no cluster)")
    print(f"  {'all':18s} every figure adapter in order")
    print()
    print("registered scenarios (single run through the pipeline):")
    _print_entries(REGISTRY)
    print()
    for kind, command in REGISTRY_COMMANDS.items():
        print(f"{command.section} (see `{kind} list`):")
        _print_entries(command.registry)
        print()
    print(
        "run with: python -m repro.experiments run <name> [--param k=v ...]"
    )
    return 0


def _cmd_describe(args) -> int:
    name = args.scenario.lower().replace("_", "-")
    fig_key = name.replace("-", "")
    if fig_key in FIGURE_ADAPTERS:
        module = FIGURE_ADAPTERS[fig_key]
        scenario = module.SCENARIO
        doc = (module.__doc__ or "").strip().split("\n")[0]
        print(f"{fig_key}: {doc}")
        print(
            f"Runs the registered scenario {scenario!r} under all three "
            "mechanisms (none/static/adaptbf) and verifies the paper's "
            "shape claims.\n"
            "As a figure adapter it accepts only "
            f"--param {'/'.join(FIGURE_SCALE_PARAMS)} (plus --full); the "
            "parameters listed below apply to `run "
            f"{scenario}` only.\n"
        )
        name = scenario
    elif fig_key == "overhead":
        print((overhead.__doc__ or "").strip())
        return 0
    try:
        print(REGISTRY.describe(name))
    except (KeyError, ValueError) as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run AdapTBF scenarios and regenerate the paper's "
        "evaluation artefacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario or figure experiment")
    run_p.add_argument("scenario", help="registered scenario or figN/overhead/all")
    run_p.add_argument(
        "--param",
        action="append",
        metavar="K=V",
        help="override a scenario parameter (repeatable; see `describe`)",
    )
    run_p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="cap simulated duration in seconds (registered scenarios)",
    )
    run_p.add_argument(
        "--mechanism",
        default=None,
        metavar="NAME",
        help="override the bandwidth-control mechanism with any registered "
        "name (see `mechanism list`)",
    )
    run_p.add_argument(
        "--mechanism-param",
        action="append",
        metavar="K=V",
        help="override a mechanism factory parameter (repeatable; see "
        "`mechanism describe <name>`)",
    )
    run_p.add_argument(
        "--workload",
        default=None,
        metavar="NAME",
        help="rebuild every process's pattern from a registered workload "
        "(see `workload list`); job structure and priorities stay as the "
        "scenario defines them",
    )
    run_p.add_argument(
        "--workload-param",
        action="append",
        metavar="K=V",
        help="override a workload factory parameter (repeatable; see "
        "`workload describe <name>`)",
    )
    run_p.add_argument(
        "--fault",
        default=None,
        metavar="NAME",
        help="attach a registered fault injector to the run (see "
        "`fault list`); the disturbance fires at its scheduled window "
        "and the engine's determinism contract still holds",
    )
    run_p.add_argument(
        "--fault-param",
        action="append",
        metavar="K=V",
        help="override a fault factory parameter (repeatable; see "
        "`fault describe <name>`)",
    )
    run_p.add_argument(
        "--full",
        action="store_true",
        help="figure adapters: run the paper-size configuration "
        "(default: 1/10 scale)",
    )
    run_p.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="export the underlying data as CSV into DIR",
    )
    run_p.set_defaults(handler=_cmd_run)

    list_p = sub.add_parser("list", help="list runnable scenarios")
    list_p.set_defaults(handler=_cmd_list)

    desc_p = sub.add_parser("describe", help="show a scenario's spec and params")
    desc_p.add_argument("scenario")
    desc_p.set_defaults(handler=_cmd_describe)

    kind_subs = {}
    for kind, command in REGISTRY_COMMANDS.items():
        kind_p = sub.add_parser(kind, help=command.help)
        kind_subs[kind] = kind_p.add_subparsers(
            dest=f"{kind}_command", required=True
        )
    camp_sub = kind_subs["campaign"]

    crun_p = camp_sub.add_parser("run", help="run a registered campaign")
    crun_p.add_argument("campaign", help="registered campaign name")
    crun_p.add_argument(
        "--param",
        action="append",
        metavar="K=V",
        help="override a campaign parameter (repeatable; see `describe`)",
    )
    crun_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to fan cells out across (default: 1, serial)",
    )
    crun_p.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write manifest/rows/timing artifacts (JSON + CSV) into DIR",
    )
    crun_p.add_argument(
        "--store",
        metavar="DIR|DB",
        default=None,
        help="durable result store: a directory (JSON-lines) or a "
        ".db/.sqlite path (SQLite); every finished cell commits "
        "immediately, so a killed run is resumable",
    )
    crun_p.add_argument(
        "--resume",
        action="store_true",
        help="allow --store to already hold committed cells of this "
        "campaign; they are skipped and only pending cells execute",
    )
    crun_p.add_argument(
        "--progress",
        action="store_true",
        help="print a per-cell completion line (index, params, wall s) as "
        "each cell finishes",
    )
    crun_p.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N cells this invocation, then stop "
        "(incremental grinding of a large sweep; combine with --store)",
    )
    crun_p.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="S",
        help="seconds a worker's claim on a cell stays valid without a "
        "commit; expired leases (dead workers) are reclaimed on resume",
    )
    crun_p.set_defaults(handler=_cmd_campaign_run)

    cstat_p = camp_sub.add_parser(
        "status", help="inspect a durable campaign store's progress"
    )
    cstat_p.add_argument(
        "store", metavar="DIR|DB", help="store passed to `campaign run --store`"
    )
    cstat_p.set_defaults(handler=_cmd_campaign_status)

    cres_p = camp_sub.add_parser(
        "resume",
        help="finish a half-run campaign from its store (skips committed "
        "cells; rows are byte-identical to an uninterrupted run)",
    )
    cres_p.add_argument(
        "store", metavar="DIR|DB", help="store passed to `campaign run --store`"
    )
    cres_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to fan pending cells across (default: 1)",
    )
    cres_p.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write manifest/rows/timing artifacts (JSON + CSV) into DIR",
    )
    cres_p.add_argument(
        "--progress",
        action="store_true",
        help="print a per-cell completion line as each cell finishes",
    )
    cres_p.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N pending cells this invocation",
    )
    cres_p.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="S",
        help="seconds a worker's claim on a cell stays valid without a commit",
    )
    cres_p.set_defaults(handler=_cmd_campaign_resume)

    for kind, kind_sub in kind_subs.items():
        list_p = kind_sub.add_parser("list", help=f"list registered {kind}s")
        list_p.set_defaults(handler=_cmd_registry_list)
        desc_p = kind_sub.add_parser(
            "describe", help=REGISTRY_COMMANDS[kind].describe_help
        )
        desc_p.add_argument("name", metavar=kind)
        desc_p.set_defaults(handler=_cmd_registry_describe)

    add_lint_subparser(sub)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
