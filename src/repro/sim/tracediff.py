"""Event-trace differ.

The engine's determinism invariant promises that a workload dispatches the
exact same ``(time, priority, seq, action)`` stream every time it runs.
This module turns that promise into a checkable artifact:
:func:`trace_scenario` runs a scenario with the engine's ``trace`` hook
attached, and :func:`diff_streams` reports the first dispatch where two
streams diverge (with context), or a clean bill.

Used two ways:

* the determinism tests (``tests/sim/test_tracediff.py``, the fault and
  centralized-mechanism parity tests) trace one spec twice and assert
  :func:`diff_streams` comes back clean on plain, faulted and centralized
  scenarios;
* when an engine change moves a figure, :func:`diff_streams` over two
  :func:`trace_scenario` streams and :func:`format_report` pinpoint the
  first divergent dispatch instead of leaving you bisecting CSVs.

Attaching the hook changes nothing else: ``Environment.run`` dispatches
traced and untraced runs through the same loop, so a clean diff covers the
loop every experiment executes.

Entries are keyed by ``(time, priority, seq, name)``: an event by its type
name, a calendar call by its callback's ``__qualname__`` (e.g.
``Network._deliver``).  The object identity of the event necessarily differs
between two runs, but under the engine's determinism invariant the sequence
numbers fix the schedule, so a name-level match at every seq is exactly as
strong as object-level equality within one run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple, Union

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "TraceEntry",
    "Divergence",
    "DiffReport",
    "trace_scenario",
    "first_divergence",
    "diff_streams",
    "format_report",
    "action_name",
]

#: One dispatched entry: ``(time, priority, seq, action name)``.
TraceEntry = Tuple[float, int, int, str]

#: Context lines shown on each side of a divergence.
_CONTEXT = 3


def action_name(action: Any) -> str:
    """The stable name of a dispatched action: an event's type name, or a
    call's callback ``__qualname__``."""
    if isinstance(action, Event):
        return type(action).__name__
    return getattr(action, "__qualname__", type(action).__name__)


@dataclass(frozen=True, slots=True)
class Divergence:
    """The first position where two dispatch streams disagree."""

    #: Index into the dispatch streams (0-based).
    index: int
    #: Entry of the first stream at ``index`` (None when it ended early).
    left: Optional[TraceEntry]
    #: Entry of the second stream at ``index`` (None when it ended early).
    right: Optional[TraceEntry]


@dataclass(frozen=True, slots=True)
class DiffReport:
    """Outcome of comparing one scenario's two dispatch streams."""

    scenario: str
    #: What distinguishes the two runs, e.g. ``("parent", "change")``.
    labels: Tuple[str, str]
    counts: Tuple[int, int]
    divergence: Optional[Divergence]
    #: A few entries before/after the divergence from each stream, for
    #: human consumption via :func:`format_report`.
    context: Tuple[Sequence[TraceEntry], Sequence[TraceEntry]] = ((), ())

    @property
    def equal(self) -> bool:
        return self.divergence is None


def trace_scenario(scenario: Union[str, "ScenarioSpec"]) -> List[TraceEntry]:
    """Run ``scenario`` and return its dispatch stream.

    ``scenario`` is a registered scenario name or a built
    :class:`~repro.scenarios.spec.ScenarioSpec`.
    """
    # Local imports: tracediff sits in the sim layer but drives the full
    # scenario stack; importing lazily keeps the engine import-light.
    from repro.cluster.builder import build
    from repro.cluster.experiment import execute
    from repro.scenarios import REGISTRY
    from repro.scenarios.spec import ScenarioSpec

    if isinstance(scenario, str):
        spec = REGISTRY.build(scenario)
    elif isinstance(scenario, ScenarioSpec):
        spec = scenario
    else:
        raise TypeError(
            f"scenario must be a name or ScenarioSpec, got {scenario!r}"
        )

    cluster = build(spec)
    entries: List[TraceEntry] = []
    append = entries.append
    cluster.env.trace = lambda when, priority, seq, action: append(
        (when, priority, seq, action_name(action))
    )
    execute(cluster)
    return entries


def first_divergence(
    left: Sequence[TraceEntry], right: Sequence[TraceEntry]
) -> Optional[Divergence]:
    """First index where two dispatch streams disagree, or None.

    A stream that is a strict prefix of the other diverges at the shorter
    stream's length (the missing side is reported as ``None``).
    """
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return Divergence(index=index, left=a, right=b)
    if len(left) != len(right):
        index = min(len(left), len(right))
        return Divergence(
            index=index,
            left=left[index] if index < len(left) else None,
            right=right[index] if index < len(right) else None,
        )
    return None


def diff_streams(
    scenario: str,
    labels: Tuple[str, str],
    left: Sequence[TraceEntry],
    right: Sequence[TraceEntry],
) -> DiffReport:
    """Compare two dispatch streams of ``scenario``, labelled ``labels``.

    A divergence carries a few entries on each side of it from both
    streams, for :func:`format_report`.
    """
    divergence = first_divergence(left, right)
    context: Tuple[Sequence[TraceEntry], Sequence[TraceEntry]] = ((), ())
    if divergence is not None:
        lo = max(0, divergence.index - _CONTEXT)
        hi = divergence.index + _CONTEXT + 1
        context = (tuple(left[lo:hi]), tuple(right[lo:hi]))
    return DiffReport(
        scenario=scenario,
        labels=labels,
        counts=(len(left), len(right)),
        divergence=divergence,
        context=context,
    )


def format_report(report: DiffReport) -> str:
    """Human-readable rendering of a :class:`DiffReport`."""
    a, b = report.labels
    if report.equal:
        return (
            f"{report.scenario}: {a} and {b} dispatched identical streams "
            f"({report.counts[0]} events)"
        )
    div = report.divergence
    lines = [
        f"{report.scenario}: {a} and {b} DIVERGE at dispatch #{div.index}",
        f"  {a}: {div.left!r}  (stream length {report.counts[0]})",
        f"  {b}: {div.right!r}  (stream length {report.counts[1]})",
    ]
    left_ctx, right_ctx = report.context
    if left_ctx or right_ctx:
        lines.append(f"  context ({a}):")
        lines.extend(f"    {entry!r}" for entry in left_ctx)
        lines.append(f"  context ({b}):")
        lines.extend(f"    {entry!r}" for entry in right_ctx)
    return "\n".join(lines)
