"""The declarative campaign specification: a parameter sweep over a scenario.

A :class:`CampaignSpec` is a frozen description of a whole *family* of runs —
the batch-system counterpart of PR 1's single-run ``ScenarioSpec``.  It names
a base registered scenario and composes one or more :class:`ParameterAxis`
objects into cells:

* ``grid`` — the Cartesian product of all axes (Fig. 9's interval axis,
  burst-intensity × priority-mix grids, OST-count × capacity scaling);
* ``zip``  — axes advanced in lockstep (paired parameters);
* ``random`` — ``samples`` cells drawn per-axis from a
  ``random.Random(seed)`` stream (Monte-Carlo style coverage).

Each :class:`CampaignCell` resolves to a concrete
:class:`~repro.scenarios.spec.ScenarioSpec` through the scenario registry's
parameter-override machinery — exactly what ``run <scenario> --param k=v``
does — so any cell is re-runnable standalone from its recorded parameters.
Several parameters are *reserved*: they apply to the resolved spec rather
than the scenario factory (unless the factory itself takes the name), so
any campaign can sweep them as axes without every scenario factory growing
the knob.  :data:`POLICY_PARAMS` (``mechanism``/``mechanism_params``) swaps the
bandwidth mechanism and its factory overrides via
:meth:`~repro.scenarios.spec.ScenarioSpec.with_policy` (the
``mechanism-shootout`` and ``decentralization-tax`` built-ins), :data:`WORKLOAD_PARAMS` (``workload``)
rebuilds every process's pattern from the named
:data:`~repro.workloads.registry.WORKLOADS` entry via
:meth:`~repro.scenarios.spec.ScenarioSpec.with_workload` (the
``workload-shootout`` built-in), and :data:`FAULT_PARAMS`
(``fault``/``fault_params``) attaches a registered disturbance via
:meth:`~repro.scenarios.spec.ScenarioSpec.with_fault` (the
``chaos-shootout`` built-in).
Cells carry a deterministic RNG seed derived from the campaign seed and the
cell index (:func:`derive_cell_seed`); scenarios that take a ``seed``
parameter (e.g. ``burst-storm``) receive it automatically unless the
campaign pins one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Tuple

from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "AXIS_MODES",
    "POLICY_PARAMS",
    "WORKLOAD_PARAMS",
    "FAULT_PARAMS",
    "ParameterAxis",
    "CampaignCell",
    "CampaignSpec",
    "derive_cell_seed",
]

#: How a campaign's axes compose into cells; see :class:`CampaignSpec`.
AXIS_MODES = ("grid", "zip", "random")

#: Cell parameters applied to the resolved spec's policy rather than passed
#: to the scenario factory (unless the factory itself takes the name).
#: ``mechanism`` swaps the bandwidth mechanism; ``mechanism_params`` carries
#: (JSON-representable) factory overrides for it.  Because the mechanism
#: axis sweeps *heterogeneous* factories, override keys a cell's mechanism
#: does not accept are dropped at resolve time — one ``mechanism_params``
#: axis (say, ``{"ctrl_latency_s": …}``) can ride along every contender and
#: only bite the mechanisms that have the knob (the ``decentralization-tax``
#: built-in leans on exactly this).
POLICY_PARAMS = ("mechanism", "mechanism_params")

#: Cell parameters applied to the resolved spec's workload axis
#: (``ScenarioSpec.with_workload``) rather than the scenario factory.
WORKLOAD_PARAMS = ("workload",)

#: Cell parameters applied to the resolved spec's fault axis
#: (``ScenarioSpec.with_fault``) rather than the scenario factory —
#: ``fault`` names a registered injector and ``fault_params`` carries its
#: (JSON-representable) overrides, so any campaign can subject any
#: scenario to the chaos axis (the ``chaos-shootout`` built-in).  Both
#: survive ``to_json_dict``/``from_json_dict`` verbatim, which is what
#: lets ``campaign resume`` rebuild a mid-fault-window sweep registry-free
#: from the store.
FAULT_PARAMS = ("fault", "fault_params")

#: ``describe()`` previews at most this many cells.
_DESCRIBE_CELLS = 8


def _filter_mechanism_params(
    mechanism: str, overrides: Mapping[str, Any]
) -> Dict[str, Any]:
    """Keep only the override keys ``mechanism``'s factory accepts.

    The mechanism axis sweeps factories with different schemas, so a swept
    ``mechanism_params`` value legitimately names knobs most contenders
    lack; silently dropping the inapplicable keys (in sorted order, for
    deterministic spec content) is what makes the shared axis composable.
    Typos against a *single* mechanism still fail fast: the CLI's
    ``--mechanism-param`` path validates against the factory directly.
    """
    from repro.core.mechanism import MECHANISMS

    accepted = MECHANISMS.get(mechanism).params
    return {
        key: overrides[key] for key in sorted(overrides) if key in accepted
    }


def derive_cell_seed(campaign_seed: int, index: int) -> int:
    """Deterministic per-cell seed from the campaign seed + cell index.

    Hash-derived (not ``campaign_seed + index``) so neighbouring cells get
    uncorrelated workload streams, and stable across processes and Python
    versions — workers and re-runs always agree.
    """
    digest = hashlib.sha256(f"{campaign_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class ParameterAxis:
    """One swept scenario parameter and the values it takes."""

    param: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.param:
            raise ValueError("axis parameter name must be non-empty")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.param!r} needs at least one value")


@dataclass(frozen=True)
class CampaignCell:
    """One point of the sweep: parameter overrides plus its derived seed."""

    index: int
    params: Mapping[str, Any]
    seed: int


@dataclass(frozen=True)
class CampaignSpec:
    """A frozen, validated sweep declaration.

    Parameters
    ----------
    name:
        Campaign name (registry key).
    scenario:
        The base *registered scenario* every cell builds on.
    axes:
        Swept parameters; composition follows ``mode``.
    mode:
        ``"grid"`` (Cartesian product, the default), ``"zip"`` (lockstep,
        all axes equal length) or ``"random"`` (``samples`` seeded draws).
    base_params:
        Fixed overrides applied to every cell (axis params must not repeat
        here).  Pin ``seed`` here to make all cells share one workload seed
        instead of the derived per-cell seeds.
    samples:
        Cell count for ``random`` mode (rejected otherwise).
    seed:
        Campaign seed: feeds the ``random``-mode draws and every cell's
        :func:`derive_cell_seed`.
    """

    name: str
    scenario: str
    axes: Tuple[ParameterAxis, ...]
    mode: str = "grid"
    base_params: Mapping[str, Any] = field(default_factory=dict)
    samples: int = 0
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if not self.scenario:
            raise ValueError("campaign must name a base scenario")
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ValueError("campaign needs at least one parameter axis")
        if self.mode not in AXIS_MODES:
            raise ValueError(
                f"unknown campaign mode {self.mode!r}; options: {AXIS_MODES}"
            )
        names = [axis.param for axis in self.axes]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(
                f"duplicate axis parameter(s): {sorted(duplicates)}"
            )
        object.__setattr__(self, "base_params", dict(self.base_params))
        overlap = set(names) & set(self.base_params)
        if overlap:
            raise ValueError(
                f"parameter(s) {sorted(overlap)} appear both as an axis "
                "and in base_params"
            )
        if self.mode == "zip":
            lengths = sorted({len(axis.values) for axis in self.axes})
            if len(lengths) > 1:
                raise ValueError(
                    f"zip mode needs equal-length axes, got lengths {lengths}"
                )
        if self.mode == "random":
            if self.samples <= 0:
                raise ValueError("random mode needs samples > 0")
        elif self.samples:
            raise ValueError("samples applies to random mode only")

    # -- cell enumeration --------------------------------------------------
    @property
    def n_cells(self) -> int:
        if self.mode == "grid":
            count = 1
            for axis in self.axes:
                count *= len(axis.values)
            return count
        if self.mode == "zip":
            return len(self.axes[0].values)
        return self.samples

    def _combinations(self) -> Iterator[Dict[str, Any]]:
        names = [axis.param for axis in self.axes]
        if self.mode == "grid":
            for combo in itertools.product(*(a.values for a in self.axes)):
                yield dict(zip(names, combo))
        elif self.mode == "zip":
            for combo in zip(*(a.values for a in self.axes)):
                yield dict(zip(names, combo))
        else:
            rng = random.Random(self.seed)  # repro: allow[no-raw-random] reason=seeded stdlib draw keeps campaign grids numpy-free; RngStreams requires numpy
            for _ in range(self.samples):
                yield {a.param: rng.choice(a.values) for a in self.axes}

    def cells(self) -> Tuple[CampaignCell, ...]:
        """Every cell of the sweep, in deterministic index order."""
        return tuple(
            CampaignCell(
                index=index,
                params=params,
                seed=derive_cell_seed(self.seed, index),
            )
            for index, params in enumerate(self._combinations())
        )

    # -- resolution --------------------------------------------------------
    def build_params(self, cell: CampaignCell) -> Dict[str, Any]:
        """The exact factory kwargs ``resolve`` hands to the registry.

        ``base_params`` overlaid with the cell's axis values, plus the
        derived cell seed whenever the scenario accepts a ``seed``
        parameter that the campaign did not pin — recording this dict is
        enough to re-run the cell standalone via ``run <scenario> --param``.
        """
        from repro.scenarios import REGISTRY

        entry = REGISTRY.get(self.scenario)
        params = dict(self.base_params)
        params.update(cell.params)
        if "seed" in entry.params:
            params.setdefault("seed", cell.seed)
        return params

    def resolve(self, cell: CampaignCell) -> ScenarioSpec:
        """Materialize one cell into a concrete :class:`ScenarioSpec`.

        Parameters the scenario factory accepts go to the factory; the
        reserved :data:`POLICY_PARAMS` are applied to the built spec's
        policy (``mechanism`` swaps the bandwidth mechanism under test),
        the reserved :data:`WORKLOAD_PARAMS` to its workload axis
        (``workload`` rebuilds every process's pattern from the registry),
        and the reserved :data:`FAULT_PARAMS` to its fault axis.  Anything
        else is rejected with the factory's own error.
        """
        from repro.scenarios import REGISTRY

        entry = REGISTRY.get(self.scenario)
        params = self.build_params(cell)
        policy_overrides = {
            key: params.pop(key)
            for key in POLICY_PARAMS
            if key in params and key not in entry.params
        }
        workload_overrides = {
            key: params.pop(key)
            for key in WORKLOAD_PARAMS
            if key in params and key not in entry.params
        }
        fault_overrides = {
            key: params.pop(key)
            for key in FAULT_PARAMS
            if key in params and key not in entry.params
        }
        if fault_overrides.get("fault_params") and not fault_overrides.get(
            "fault"
        ):
            raise ValueError("fault_params given without a fault name")
        spec = entry.build(**params)
        if "mechanism_params" in policy_overrides:
            target = policy_overrides.get("mechanism") or spec.policy.mechanism
            policy_overrides["mechanism_params"] = _filter_mechanism_params(
                target, policy_overrides["mechanism_params"] or {}
            )
        if policy_overrides:
            spec = spec.with_policy(**policy_overrides)
        if spec.run.seed != cell.seed:
            # Stamp the derived seed into the run spec for provenance even
            # when the scenario factory itself takes no seed.
            spec = spec.with_run(seed=cell.seed)
        if workload_overrides.get("workload"):
            # After seed stamping, so seeded workload factories inherit the
            # cell's derived seed through with_workload.
            spec = spec.with_workload(workload_overrides["workload"])
        if fault_overrides.get("fault"):
            # Likewise after seed stamping: seeded injectors (client-churn
            # victim selection) inherit the cell's derived seed.
            spec = spec.with_fault(
                fault_overrides["fault"],
                fault_overrides.get("fault_params") or (),
            )
        return spec

    # -- identity ----------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-ready canonical form (drives :meth:`spec_hash`)."""
        return {
            "name": self.name,
            "scenario": self.scenario,
            "mode": self.mode,
            "seed": self.seed,
            "samples": self.samples,
            "description": self.description,
            "base_params": dict(self.base_params),
            "axes": [
                {"param": axis.param, "values": list(axis.values)}
                for axis in self.axes
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from its :meth:`to_json_dict` canonical form.

        Round-trip exactness (``rebuilt.spec_hash() == original``) is what
        lets a persistent store resume a campaign without the original
        factory: the store records the canonical form at first run and
        ``campaign resume`` rebuilds the identical spec from it.  (Axis
        values and ``base_params`` must be JSON-representable for the
        round trip to be exact — true of every CLI-reachable campaign.)
        """
        return cls(
            name=payload["name"],
            scenario=payload["scenario"],
            axes=tuple(
                ParameterAxis(axis["param"], tuple(axis["values"]))
                for axis in payload["axes"]
            ),
            mode=payload.get("mode", "grid"),
            base_params=dict(payload.get("base_params", {})),
            samples=payload.get("samples", 0),
            seed=payload.get("seed", 0),
            description=payload.get("description", ""),
        )

    def spec_hash(self) -> str:
        """Stable content hash of the campaign declaration."""
        canonical = json.dumps(
            self.to_json_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # -- description -------------------------------------------------------
    def describe(self) -> str:
        """Human-readable multi-line summary of the sweep."""
        lines = [f"campaign: {self.name}"]
        if self.description:
            lines.append(f"  {self.description}")
        lines += [
            f"scenario: {self.scenario}",
            f"mode:     {self.mode}, seed={self.seed}, "
            f"cells={self.n_cells}, hash={self.spec_hash()}",
            "axes:",
        ]
        for axis in self.axes:
            rendered = ", ".join(f"{v!r}" for v in axis.values)
            lines.append(f"  {axis.param}: [{rendered}]")
        if self.base_params:
            lines.append("base parameters:")
            for key in sorted(self.base_params):
                lines.append(f"  {key} = {self.base_params[key]!r}")
        cells = self.cells()
        lines.append("cells:")
        for cell in cells[:_DESCRIBE_CELLS]:
            pairs = " ".join(
                f"{k}={v!r}" for k, v in sorted(cell.params.items())
            )
            lines.append(f"  [{cell.index}] {pairs} (seed={cell.seed})")
        if len(cells) > _DESCRIBE_CELLS:
            lines.append(f"  ... (+{len(cells) - _DESCRIBE_CELLS} more)")
        return "\n".join(lines)
