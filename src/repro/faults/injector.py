"""The pluggable fault-injection API: handle, injector protocol, registry.

Faults are the fifth registry axis beside scenarios, campaigns, mechanisms
and workloads.  A :class:`FaultInjector` describes *one scheduled
disturbance* of a built cluster — an OST crash/recovery cycle, a degraded
(straggler) OST, network latency inflation or a partition window, client
join/leave churn — and the :data:`FAULTS` registry resolves injectors by
name with ``--fault-param``-style overrides, exactly like mechanisms.
Adding a disturbance is one registration — no builder, spec or CLI edits::

    @FAULTS.register("my-fault", description="...")
    def _my_fault(start_s: float = 1.0) -> FaultInjector: ...

    spec.with_fault("my-fault", {"start_s": 0.5})

Lifecycle
---------
The cluster builder calls :meth:`FaultInjector.install` once per built
cluster, after every OSS/OST pair, the network and all clients exist;
``install`` spawns the injector's *driver process* — an ordinary simulation
process that sleeps to each scheduled transition and mutates the cluster
through the same event machinery everything else uses, so injections land
at deterministic ``(time, priority, seq)`` positions and the trace stays
bit-identical run over run.  ``install`` returns a
:class:`FaultHandle` exposing the disturbance windows (known statically
from the parameters — chaos metrics bucket bytes by them without any
callback from the injector) and injection counters, and
:meth:`FaultHandle.teardown` stops the driver.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.registry import FactoryRegistry, RegisteredFactory

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import ClusterTopology
    from repro.sim.engine import Environment
    from repro.sim.process import Process

__all__ = ["FaultHandle", "FaultInjector", "FaultRegistry", "FAULTS"]


class FaultHandle:
    """One installed fault: its driver process, windows and counters.

    Parameters
    ----------
    injector:
        The resolved injector this handle belongs to.
    windows:
        Disturbance windows as ``(start_s, end_s)`` pairs, computed
        statically from the injector's parameters.  Chaos metrics split
        completion streams into before/during/after buckets by these, so
        they must not depend on runtime state.
    """

    def __init__(
        self,
        injector: "FaultInjector",
        windows: Tuple[Tuple[float, float], ...],
    ) -> None:
        self.injector = injector
        self.windows = tuple((float(a), float(b)) for a, b in windows)
        #: Fault transitions executed so far (crash, recover, rescale, ...).
        self.injections = 0
        #: The driver process; set by the injector's ``install``.
        self.process: Optional["Process"] = None
        self._stopped = False

    @property
    def name(self) -> str:
        return self.injector.name

    @property
    def stopped(self) -> bool:
        return self._stopped

    def teardown(self) -> None:
        """Stop the driver; it exits at its next scheduled transition."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FaultHandle {self.name} windows={self.windows} "
            f"injections={self.injections}>"
        )


class FaultInjector(ABC):
    """A scheduled cluster disturbance, resolvable by name from the registry.

    Instances are cheap parameter holders: runtime state (the driver
    process, counters) lives in the :class:`FaultHandle` each
    :meth:`install` returns, so one injector instance could disturb several
    clusters without cross-talk.
    """

    #: Registry name; stamped by :meth:`FaultRegistry.build`.
    name: str = "?"
    #: Resolved factory parameters; stamped by :meth:`FaultRegistry.build`.
    params: Mapping[str, Any] = {}

    @abstractmethod
    def install(
        self, env: "Environment", cluster: "ClusterTopology"
    ) -> FaultHandle:
        """Attach the fault to a built cluster and return its handle.

        Called by :func:`repro.cluster.builder.build` after OSTs, OSSes,
        the network and every client exist; implementations spawn their
        driver process here and must mutate the cluster only through the
        ordinary event machinery (timeouts, ``Event.fail``, lazy
        cancellation) so the dispatch order stays deterministic.
        """

    def windows(self) -> Tuple[Tuple[float, float], ...]:
        """Disturbance windows from the parameters alone (default: none)."""
        return ()

    def describe(self) -> str:
        """Human-readable summary: what the fault does and its knobs."""
        import inspect

        doc = (inspect.getdoc(type(self)) or "").split("\n\n")[0]
        lines = [f"fault: {self.name}"]
        if doc:
            lines.append(f"  {doc}")
        windows = self.windows()
        if windows:
            rendered = ", ".join(f"[{a:g}s, {b:g}s)" for a, b in windows)
            lines.append(f"disturbance window(s): {rendered}")
        if self.params:
            lines.append("resolved parameters:")
            for key in sorted(self.params):
                lines.append(f"  {key} = {self.params[key]!r}")
        else:
            lines.append("resolved parameters: (none)")
        return "\n".join(lines)


class FaultRegistry(FactoryRegistry):
    """Name → injector-factory mapping behind ``--fault`` everywhere."""

    kind = "fault"
    override_flag = "--fault-param"

    def build(self, name: str, **overrides) -> FaultInjector:
        """Resolve an injector instance, stamping its name and parameters."""
        entry = self.get(name)
        injector = entry.build(**overrides)
        injector.name = entry.name
        resolved = dict(entry.params)
        resolved.update(overrides)
        injector.params = resolved
        return injector

    def _describe_built(self, entry: RegisteredFactory) -> List[str]:
        return ["", self.build(entry.name).describe()]


#: The process-wide default registry; built-in faults self-register on
#: ``import repro.faults``.
FAULTS = FaultRegistry()
