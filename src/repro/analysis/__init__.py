"""Static contract analysis: the determinism & API linter.

The test suite can only *sample* the repo's behavioural guarantees
(byte-identical figure CSVs, ``rows.json`` stable across ``--jobs N``,
crash/resume replay, identical event traces run after run); this package
enforces the source-level invariants those guarantees rest on, over the
repo's own AST, with stdlib :mod:`ast` only:

* :mod:`repro.analysis.rules` — the rules and :data:`RULES` registry
  (a :class:`~repro.analysis.rules.RuleRegistry` on the shared
  :class:`repro.registry.FactoryRegistry`);
* :mod:`repro.analysis.engine` — file walking, suppression matching,
  reports (:func:`lint_paths` / :func:`lint_source`);
* :mod:`repro.analysis.model` — violations, ``# repro: allow[...]``
  pragmas, per-file context;
* :mod:`repro.analysis.cli` — ``lint run|list|describe``.

See ``docs/contracts.md`` for the invariant → rule mapping and the
pragma escape hatch.
"""

from repro.analysis.engine import (
    DEFAULT_TARGETS,
    LintReport,
    lint_paths,
    lint_source,
)
from repro.analysis.model import META_RULES, Pragma, Violation
from repro.analysis.rules import RULES, LintRule, RuleRegistry

__all__ = [
    "DEFAULT_TARGETS",
    "LintReport",
    "LintRule",
    "META_RULES",
    "Pragma",
    "RULES",
    "RuleRegistry",
    "Violation",
    "lint_paths",
    "lint_source",
]
