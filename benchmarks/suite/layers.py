"""Per-layer measurement: simulation counters and the cProfile rollup.

Two sources, both outside the program's own code:

* :func:`count_simulations` wraps ``Environment.run`` for the duration of a
  pass and adds up each environment's public ``scheduled`` / ``dispatched``
  counters and final simulated time when its run returns.  Every workload
  runs each environment exactly once (through ``execute``), so the sums are
  exact.  It costs one call per simulation, so it is on in untraced and
  traced passes alike, and their counts must match.
* :func:`rollup` reads a ``cProfile`` run of one pass: self time summed by
  package and module, call counts of named functions, and cumulative time
  of the control-plane steps.  cProfile adds a cost to every Python call,
  so the fractions are for finding where time goes; end-to-end numbers
  always come from untraced passes.

Simulations that run in campaign pool workers are invisible to both (the
profile and the counters live in the benchmark's process).
"""

from __future__ import annotations

import contextlib
import importlib
import os
import pstats
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import calibration

#: Packages whose self time is reported, and the Lustre model's modules.
LAYERS = ("sim", "lustre", "core", "metrics")
LUSTRE_MODULES = ("oss", "tbf", "nrs", "bucket", "ost", "client", "network", "jobstats")

#: Functions the rollup counts or times, as ``module:Class.method`` paths.
FUNCS: Dict[str, Sequence[str]] = {
    # Every Event-family object runs exactly one of these two.
    "event_inits": ("repro.sim.events:Event.__init__", "repro.sim.events:Timeout.__init__"),
    "timeout_inits": ("repro.sim.events:Timeout.__init__",),
    "timeout_requests": ("repro.sim.engine:Environment.timeout",),
    "cancels": ("repro.sim.events:Event.cancel",),
    "resumes": ("repro.sim.process:Process._resume",),
    "completions": ("repro.lustre.jobstats:JobStatsTracker.record_completion",),
    "polls": ("repro.lustre.nrs:FifoPolicy.poll", "repro.lustre.nrs:TbfPolicy.poll"),
    # One allocation decision per OST per control round, whatever the
    # mechanism (sdn decides every OST centrally, one call each).
    "rounds": (
        "repro.core.allocation:TokenAllocationAlgorithm.allocate",
        "repro.core.pid:PidRateController.allocate",
        "repro.core.vc:VirtualCircuitTable.allocate",
        "repro.core.sdn:CentralController.allocate_ost",
    ),
    "observe": (
        "repro.core.controller:SystemStatsController._demands",
        "repro.core.pid:PidRateController.observe",
        "repro.core.vc:VirtualCircuitTable.observe",
        "repro.core.sdn:SdnOstAgent.observe",
    ),
    "apply": (
        "repro.core.rule_daemon:RuleManagementDaemon.apply",
        "repro.core.pid:PidRateController.apply",
        "repro.core.vc:VirtualCircuitTable.apply",
        "repro.core.sdn:SdnOstAgent.apply",
    ),
    "rule_ops": (
        "repro.lustre.nrs:TbfPolicy.start_rule",
        "repro.lustre.nrs:TbfPolicy.stop_rule",
        "repro.lustre.nrs:TbfPolicy.change_rate",
    ),
    "summarize": ("repro.metrics.summary:summarize",),
    "timeline_records": ("repro.metrics.timeline:Timeline.record_rpc",),
}
#: AdapTBF's controller reads job stats inline in its loop, so that read
#: counts towards observation only when called from there.
OBSERVE_SNAPSHOT = (
    "repro.lustre.jobstats:JobStatsTracker.snapshot",
    "repro.core.controller:SystemStatsController._loop",
)

Label = Tuple[str, int, str]


@contextlib.contextmanager
def count_simulations() -> Iterator[Dict[str, float]]:
    """Tally every ``Environment.run`` in this process while the block runs."""
    from repro.sim.engine import Environment

    tally: Dict[str, float] = {
        "sim.runs": 0,
        "sim.sim_s": 0.0,
        "sim.events_scheduled": 0,
        "sim.events_dispatched": 0,
    }
    original = Environment.run

    def run(self, until=None):
        try:
            return original(self, until)
        finally:
            tally["sim.runs"] += 1
            tally["sim.sim_s"] += self.now
            tally["sim.events_scheduled"] += self.scheduled
            tally["sim.events_dispatched"] += self.dispatched

    Environment.run = run
    try:
        yield tally
    finally:
        Environment.run = original


def _label(path: str, missing: List[str]) -> Optional[Label]:
    """The profile key of the function at ``module:qualname``."""
    module_name, _, qualname = path.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        code = obj.__code__
    except (ImportError, AttributeError):
        missing.append(path)
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def rollup(stats: pstats.Stats, package_root: str) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer numbers from one profiled pass.

    ``package_root`` is the directory of the ``repro`` package.  Returns the
    numbers and the function paths that no longer exist (their counts read
    0), so a renamed function shows up instead of silently zeroing.
    """
    entries = stats.stats  # type: ignore[attr-defined]
    root = os.path.normpath(package_root) + os.sep
    sampler = os.path.abspath(calibration.__file__)
    total = 0.0
    self_s: Dict[str, float] = {}
    for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) in entries.items():
        path = os.path.abspath(filename)
        if path == sampler:  # host-speed slices are not the program's time
            continue
        total += tt
        if not path.startswith(root):
            continue
        rel = path[len(root):].replace(os.sep, "/")
        package, _, module = rel.partition("/")
        module = module[:-3] if module.endswith(".py") else module
        for key in (package, f"{package}.{module}"):
            self_s[key] = self_s.get(key, 0.0) + tt

    missing: List[str] = []
    labels = {
        group: [label for label in (_label(p, missing) for p in paths) if label]
        for group, paths in FUNCS.items()
    }

    def calls(group: str) -> int:
        return sum(entries[label][1] for label in labels[group] if label in entries)

    def cumulative(group: str) -> float:
        return sum(entries[label][3] for label in labels[group] if label in entries)

    def frac(key: str) -> float:
        return self_s.get(key, 0.0) / total if total else 0.0

    snapshot, loop = (_label(p, missing) for p in OBSERVE_SNAPSHOT)
    snapshot_s = 0.0
    if snapshot in entries and loop is not None:
        snapshot_s = entries[snapshot][4].get(loop, (0, 0, 0.0, 0.0))[3]

    out: Dict[str, float] = {f"{layer}.self_frac": frac(layer) for layer in LAYERS}
    for module in LUSTRE_MODULES:
        out[f"lustre.{module}.self_frac"] = frac(f"lustre.{module}")
    requests = calls("timeout_requests")
    out["sim.event_objects"] = calls("event_inits")
    out["sim.timeout_reuse_frac"] = (
        1.0 - calls("timeout_inits") / requests if requests else 0.0
    )
    out["sim.cancels"] = calls("cancels")
    out["sim.resumes"] = calls("resumes")
    out["lustre.rpcs_completed"] = calls("completions")
    out["lustre.nrs.polls"] = calls("polls")
    rounds = calls("rounds")
    out["core.rounds"] = rounds
    out["core.allocate_us_per_round"] = (
        cumulative("rounds") / rounds * 1e6 if rounds else 0.0
    )
    out["core.observe_s"] = cumulative("observe") + snapshot_s
    out["core.apply_s"] = cumulative("apply")
    out["core.rule_ops"] = calls("rule_ops")
    out["metrics.summarize_s"] = cumulative("summarize")
    out["metrics.timeline_records"] = calls("timeline_records")
    out["campaigns.reduce_s"] = self_s.get("campaigns.aggregate", 0.0)
    return out, sorted(set(missing))
