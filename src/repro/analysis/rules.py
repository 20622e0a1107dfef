"""The contract rules and their registry.

Each rule is a class with a stable kebab-case ``id`` and a
``check(ctx)`` generator yielding :class:`~repro.analysis.model.Violation`
records for one :class:`~repro.analysis.model.FileContext`.  Rules are
registered on :data:`RULES` — a :class:`RuleRegistry` built on the shared
:class:`repro.registry.FactoryRegistry` — so ``lint list`` / ``lint
describe`` get the same schema-from-source treatment as scenarios,
mechanisms and workloads.

Every rule enforces an invariant some byte-identity guarantee already
depends on; the mapping is spelled out in ``docs/contracts.md``.  The
``Example`` block in each rule's docstring is executable and exercised by
the doc-sync suite (``tests/docs/test_lint_doc_sync.py``), so the
documented behaviour cannot drift from the implementation.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.model import FileContext, Violation
from repro.registry import FactoryRegistry, parse_param_docs

__all__ = ["LintRule", "RuleRegistry", "RULES"]

#: Package prefix the determinism rules guard.  Everything that can run
#: inside a simulation lives here; tests and benchmarks are exempt by
#: construction (they are never imported by simulation code).
_PKG = "src/repro/"


class LintRule:
    """Base class: one statically checkable repo invariant."""

    #: Stable kebab-case identifier used in reports and pragmas.
    id: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError


class RuleRegistry(FactoryRegistry):
    """Registry of lint rules; ``describe`` appends the rule's full docs."""

    kind = "rule"
    override_flag = "--rule"

    def _describe_built(self, entry) -> List[str]:
        import inspect

        doc = inspect.getdoc(entry.factory)
        if not doc:
            return []
        return ["", doc]


RULES = RuleRegistry()


# ---------------------------------------------------------------------------
# Shared import/alias resolution
# ---------------------------------------------------------------------------

def _collect_imports(tree: ast.AST) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Map local names to the dotted things they import.

    Returns ``(modules, names)``: ``modules`` for module bindings
    (``import numpy as np`` → ``{"np": "numpy"}``; ``import numpy.random``
    binds ``numpy``), ``names`` for from-imports
    (``from time import perf_counter`` → ``{"perf_counter":
    "time.perf_counter"}``).
    """
    modules: Dict[str, str] = {}
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    modules[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports never reach stdlib randomness
            for alias in node.names:
                if alias.name == "*":
                    continue
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return modules, names


def _resolve(
    node: ast.AST, modules: Dict[str, str], names: Dict[str, str]
) -> Optional[str]:
    """Dotted origin of an expression, or None when not import-derived."""
    if isinstance(node, ast.Name):
        return names.get(node.id) or modules.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, modules, names)
        return f"{base}.{node.attr}" if base else None
    return None


class _UsageScan(ast.NodeVisitor):
    """Find every usage of import-derived names matching a predicate.

    Flags the *outermost* matching expression once: ``np.random.default_rng``
    is one finding anchored at the full chain, not three.
    """

    def __init__(self, tree: ast.AST, predicate) -> None:
        self._modules, self._names = _collect_imports(tree)
        self._predicate = predicate
        self.hits: List[Tuple[ast.AST, str]] = []
        self.visit(tree)

    def _try_flag(self, node: ast.AST) -> bool:
        dotted = _resolve(node, self._modules, self._names)
        if dotted is not None and self._predicate(dotted):
            self.hits.append((node, dotted))
            return True
        return False

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self._try_flag(node):
            self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._try_flag(node)


# ---------------------------------------------------------------------------
# Determinism rules
# ---------------------------------------------------------------------------

@RULES.register(
    "no-raw-random",
    description="all randomness flows through sim/rng.py substreams",
)
class NoRawRandom(LintRule):
    """Ban ``random`` / ``numpy.random`` outside ``sim/rng.py``.

    Byte-identical reruns (fig3–fig9 CSVs, ``rows.json`` across
    ``--jobs N``, crash/resume replay) require every stochastic draw to
    come from a named :class:`repro.sim.rng.RngStreams` substream derived
    from the run seed.  A direct ``random.random()`` or
    ``numpy.random.default_rng()`` draws from a stream the seed plumbing
    does not own: adding one perturbs unrelated draws, and module-level
    state leaks across runs.  Tests and benchmarks are out of scope;
    ``src/repro/sim/rng.py`` is the one sanctioned wrapper.

    Example
    -------
    ```python
    from repro.analysis import lint_source

    bad = "import random\\nshape = random.random()\\n"
    (v,) = lint_source(bad, rel="src/repro/workloads/gen.py")
    assert (v.rule, v.line, v.col) == ("no-raw-random", 2, 9)

    ok = (
        "import random\\n"
        "shape = random.random()"
        "  # repro: allow[no-raw-random] reason=doc demo\\n"
    )
    assert lint_source(ok, rel="src/repro/workloads/gen.py") == []
    ```
    """

    id = "no-raw-random"

    @staticmethod
    def _banned(dotted: str) -> bool:
        return (
            dotted == "random"
            or dotted.startswith("random.")
            or dotted == "numpy.random"
            or dotted.startswith("numpy.random.")
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.under(_PKG) or ctx.is_file("src/repro/sim/rng.py"):
            return
        for node, dotted in _UsageScan(ctx.tree, self._banned).hits:
            yield ctx.violation(
                self.id,
                node,
                f"{dotted} bypasses the seeded RngStreams discipline; draw "
                "from a named substream (repro.sim.rng) instead",
            )


#: Wall-clock reads that would couple simulated behaviour to real time.
_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@RULES.register(
    "no-wallclock",
    description="no wall-clock time reaches simulation logic",
)
class NoWallclock(LintRule):
    """Ban wall-clock reads (``time.time``, ``perf_counter``, ``now()``).

    Simulated time is the only clock the model may observe — any
    wall-clock value that reaches simulation logic varies per host and
    per run, silently breaking replayability.  Code that *measures* the
    simulator (campaign ``timing.json``, lease TTLs, the overhead
    experiment) legitimately reads real clocks, but each such site must
    carry a scoped pragma so the quarantine boundary stays explicit and
    reviewed.

    Example
    -------
    ```python
    from repro.analysis import lint_source

    bad = "import time\\ndef stamp():\\n    return time.time()\\n"
    (v,) = lint_source(bad, rel="src/repro/core/clock.py")
    assert (v.rule, v.line) == ("no-wallclock", 3)

    ok = bad.replace(
        "time.time()",
        "time.time()  # repro: allow[no-wallclock] reason=doc demo",
    )
    assert lint_source(ok, rel="src/repro/core/clock.py") == []
    ```
    """

    id = "no-wallclock"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.under(_PKG):
            return
        for node, dotted in _UsageScan(
            ctx.tree, lambda d: d in _WALLCLOCK
        ).hits:
            yield ctx.violation(
                self.id,
                node,
                f"{dotted} reads the wall clock; simulation logic must only "
                "observe simulated time (pragma timing/quarantine code)",
            )


#: Environment reads: a variable that changes a run appears in no spec.
_ENVIRON = frozenset({"os.environ", "os.environb", "os.getenv", "os.getenvb"})


@RULES.register(
    "no-environ",
    description="no environment variable changes what a run computes",
)
class NoEnviron(LintRule):
    """Ban environment reads (``os.environ``, ``os.environb``, ``os.getenv``).

    A run is defined by its ``ScenarioSpec`` (or campaign spec) and the
    command line: the spec is what describe prints, what campaign hashes
    cover and what a store records.  A variable read from the environment
    changes the run without appearing in any of them, so the same command
    computes different outputs on two hosts and nothing says why.  Settings
    belong in spec parameters or CLI options; a deliberate read carries a
    line pragma naming why.

    Example
    -------
    ```python
    from repro.analysis import lint_source

    bad = "import os\\nfull = os.environ.get('FULL')\\n"
    (v,) = lint_source(bad, rel="src/repro/experiments/scale.py")
    assert (v.rule, v.line, v.col) == ("no-environ", 2, 8)

    alias = "from os import getenv\\nfull = getenv('FULL')\\n"
    (v,) = lint_source(alias, rel="src/repro/experiments/scale.py")
    assert v.rule == "no-environ"

    ok = bad.replace(
        "('FULL')", "('FULL')  # repro: allow[no-environ] reason=doc demo"
    )
    assert lint_source(ok, rel="src/repro/experiments/scale.py") == []
    ```
    """

    id = "no-environ"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.under(_PKG):
            return
        for node, dotted in _UsageScan(ctx.tree, lambda d: d in _ENVIRON).hits:
            yield ctx.violation(
                self.id,
                node,
                f"{dotted} reads the environment; a setting that changes a "
                "run belongs in the spec or on the command line",
            )


#: Reference-count reads: a CPython detail that can read low (3.14 borrows
#: references on the operand stack).
_REFCOUNT = frozenset({"sys.getrefcount"})


@RULES.register(
    "no-refcount",
    description="no reference count decides what a run computes",
)
class NoRefcount(LintRule):
    """Ban reference-count reads (``sys.getrefcount``).

    A reference count is a CPython implementation detail, not part of the
    language: CPython 3.14 borrows references on the operand stack, so a
    count can read lower than the references a program holds.  Code that
    decides from a count whether an object is still in use (to recycle it,
    say) then acts on a live object, and a run computes a silently wrong
    answer on one interpreter and the right one on another.  Tests may read
    counts; the package may not.

    Example
    -------
    ```python
    from repro.analysis import lint_source

    bad = "import sys\\nspare = sys.getrefcount(obj) == 2\\n"
    (v,) = lint_source(bad, rel="src/repro/sim/pool.py")
    assert (v.rule, v.line, v.col) == ("no-refcount", 2, 9)

    alias = "from sys import getrefcount as rc\\nspare = rc(obj) == 2\\n"
    (v,) = lint_source(alias, rel="src/repro/sim/pool.py")
    assert v.rule == "no-refcount"

    assert lint_source(bad, rel="tests/sim/test_pool.py") == []
    ```
    """

    id = "no-refcount"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.under(_PKG):
            return
        for node, dotted in _UsageScan(ctx.tree, lambda d: d in _REFCOUNT).hits:
            yield ctx.violation(
                self.id,
                node,
                f"{dotted} reads a CPython reference count, which can read "
                "low; nothing a run computes may rest on it",
            )


@RULES.register(
    "no-assert",
    description="no assert statement guards the package's invariants",
)
class NoAssert(LintRule):
    """Ban ``assert`` statements under ``src/repro/``.

    ``python -O`` strips every ``assert``, so an invariant the package
    guards with one is not checked there, and the run goes on past the
    broken state instead of stopping: an OST completion check that fired
    early would finish transfers with bytes left, and a TBF poll would
    serve an RPC without a token.  The package raises instead (``raise
    RuntimeError(...)`` for a broken invariant, ``ValueError`` or
    ``TypeError`` for bad input).  Tests assert freely.

    Example
    -------
    ```python
    from repro.analysis import lint_source

    bad = "def take(bucket):\\n    assert bucket.tokens >= 1, 'no token'\\n"
    (v,) = lint_source(bad, rel="src/repro/lustre/take.py")
    assert (v.rule, v.line, v.col) == ("no-assert", 2, 5)

    ok = bad.replace(
        "assert bucket.tokens >= 1, 'no token'",
        "if not bucket.tokens >= 1:\\n        raise RuntimeError('no token')",
    )
    assert lint_source(ok, rel="src/repro/lustre/take.py") == []

    assert lint_source(bad, rel="tests/lustre/test_take.py") == []
    ```
    """

    id = "no-assert"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.under(_PKG):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield ctx.violation(
                    self.id,
                    node,
                    "python -O strips assert statements; raise an exception "
                    "for a broken invariant instead",
                )


@RULES.register(
    "no-float-sum",
    description="the built-in sum() adds integers only; floats go through fold_sum",
)
class NoFloatSum(LintRule):
    """Ban the built-in ``sum`` under ``src/repro/`` unless a line pragma
    states that it sums integers.

    Since Python 3.12 the built-in ``sum()`` adds floats with Neumaier
    compensation, so one float sum can round differently on 3.11 and on
    3.12+.  Every float sum whose result can reach an output therefore goes
    through :func:`repro.numeric.fold_sum` (3.11's left-to-right fold),
    which keeps outputs byte-identical across interpreters.  Integer sums
    are exact on every version and keep the fast built-in, but no static
    check can tell the two apart: each use of the built-in (a call, or the
    name passed as a function) carries an ``allow`` pragma whose reason
    says what integers it adds.  A module that binds its own ``sum`` is not
    using the built-in; ``builtins.sum`` is.

    Example
    -------
    ```python
    from repro.analysis import lint_source

    bad = "def total(rates):\\n    return sum(rates)\\n"
    (v,) = lint_source(bad, rel="src/repro/core/total.py")
    assert (v.rule, v.line, v.col) == ("no-float-sum", 2, 12)

    ok = bad.replace(
        "sum(rates)",
        "sum(rates)  # repro: allow[no-float-sum] reason=integer token counts",
    )
    assert lint_source(ok, rel="src/repro/core/total.py") == []

    folded = "from repro.numeric import fold_sum\\n" + bad.replace(
        "sum(", "fold_sum("
    )
    assert lint_source(folded, rel="src/repro/core/total.py") == []
    ```
    """

    id = "no-float-sum"

    _MESSAGE = (
        "built-in sum() rounds floats differently on Python 3.12+; fold "
        "floats with repro.numeric.fold_sum, or pragma an integer sum"
    )

    @staticmethod
    def _binds_sum(tree: ast.AST) -> bool:
        """Whether the module binds the name ``sum`` itself."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "sum":
                if not isinstance(node.ctx, ast.Load):
                    return True
            elif isinstance(node, ast.alias):
                if (node.asname or node.name) == "sum":
                    return True
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if node.name == "sum":
                    return True
            elif isinstance(node, ast.arg) and node.arg == "sum":
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.under(_PKG):
            return
        for node, _ in _UsageScan(ctx.tree, lambda d: d == "builtins.sum").hits:
            yield ctx.violation(self.id, node, self._MESSAGE)
        if self._binds_sum(ctx.tree):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Name)
                and node.id == "sum"
                and isinstance(node.ctx, ast.Load)
            ):
                yield ctx.violation(self.id, node, self._MESSAGE)


@RULES.register(
    "calendar-seam-only",
    description="events enter the calendar and the clock moves only in sim/engine.py",
)
class CalendarSeamOnly(LintRule):
    """Ban ``heapq``, calendar-internal access and clock writes outside
    ``sim/engine.py``.

    :class:`~repro.sim.engine.Environment` owns the event calendar: every
    insertion goes through one of its scheduling methods (``call_later``,
    ``call_soon``, ``timeout``, ``_insert``) or its zero-delay append with a
    fresh sequence number, and each entry lands in the structure its time
    and priority pick, so the ``(time, priority, seq)`` total order — and
    with it trace determinism — is preserved.  A stray ``heapq.heappush``, or a reach
    into calendar storage (the instant heap ``_instants``, the per-instant
    lists ``_by_time``, the current instant's ``_rest``, the FIFOs
    ``_now_fifo`` and ``_urgent_fifo``), bypasses sequence-number stamping
    and that placement, and diverges the dispatch stream.
    Heaps that are *not* the event calendar (the TBF rule queue) carry a
    file pragma stating exactly that.  The clock, ``env.now``, is a plain
    attribute for speed; only the engine's dispatch moves it, so assigning
    (or deleting) any ``.now`` attribute elsewhere is a violation.

    Example
    -------
    ```python
    from repro.analysis import lint_source

    bad = "import heapq\\ndef sneak(cal, ev):\\n    heapq.heappush(cal, ev)\\n"
    (v,) = lint_source(bad, rel="src/repro/lustre/sneak.py")
    assert (v.rule, v.line) == ("calendar-seam-only", 3)

    reach = "def peek(env):\\n    return env._instants[0]\\n"
    (v,) = lint_source(reach, rel="src/repro/core/peek.py")
    assert v.rule == "calendar-seam-only"

    warp = "def skip(env, t):\\n    env.now = t\\n"
    (v,) = lint_source(warp, rel="src/repro/faults/warp.py")
    assert (v.rule, v.line, v.col) == ("calendar-seam-only", 2, 5)
    assert lint_source(warp, rel="src/repro/sim/engine.py") == []
    ```
    """

    id = "calendar-seam-only"

    #: Attribute names that are calendar storage internals.
    _INTERNALS = frozenset(
        {"_instants", "_by_time", "_rest", "_now_fifo", "_urgent_fifo"}
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.under(_PKG) or ctx.is_file("src/repro/sim/engine.py"):
            return
        for node, dotted in _UsageScan(
            ctx.tree, lambda d: d == "heapq" or d.startswith("heapq.")
        ).hits:
            yield ctx.violation(
                self.id,
                node,
                f"{dotted}: the event calendar is owned by "
                "repro.sim.engine; schedule through the Environment API, "
                "or pragma a heap that is not the calendar",
            )
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._INTERNALS
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                )
            ):
                yield ctx.violation(
                    self.id,
                    node,
                    f"direct access to calendar internal .{node.attr}; go "
                    "through the Environment API",
                )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "now"
                and isinstance(node.ctx, (ast.Store, ast.Del))
            ):
                yield ctx.violation(
                    self.id,
                    node,
                    "writes the simulated clock .now; only repro.sim.engine "
                    "advances it, by dispatching the calendar",
                )


@RULES.register(
    "no-dict-order-leak",
    description="set iteration order never feeds ordered output",
)
class NoDictOrderLeak(LintRule):
    """Ban iterating a ``set`` into order-sensitive output.

    Set iteration order depends on insertion history and hash seeding —
    letting it feed a list, a loop with ordered side effects, or a joined
    string makes output ordering an accident of memory layout.  Rows,
    CSVs and reports must be byte-identical across runs and worker
    counts, so sets feeding ordered consumers must pass through
    ``sorted(...)`` first.  Order-insensitive consumers (``sum``,
    ``len``, ``sorted`` itself, another set) are fine.

    Example
    -------
    ```python
    from repro.analysis import lint_source

    bad = "def order(jobs):\\n    return [j for j in set(jobs)]\\n"
    (v,) = lint_source(bad, rel="src/repro/metrics/order.py")
    assert (v.rule, v.line) == ("no-dict-order-leak", 2)

    ok = "def order(jobs):\\n    return [j for j in sorted(set(jobs))]\\n"
    assert lint_source(ok, rel="src/repro/metrics/order.py") == []
    ```
    """

    id = "no-dict-order-leak"

    _MESSAGE = (
        "set iteration order is arbitrary; wrap in sorted(...) before it "
        "feeds ordered output"
    )

    @classmethod
    def _is_set_expr(cls, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return cls._is_set_expr(node.left) or cls._is_set_expr(node.right)
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.under(_PKG):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and self._is_set_expr(node.iter):
                yield ctx.violation(self.id, node.iter, self._MESSAGE)
            elif isinstance(node, (ast.ListComp, ast.DictComp)):
                for gen in node.generators:
                    if self._is_set_expr(gen.iter):
                        yield ctx.violation(self.id, gen.iter, self._MESSAGE)
            elif isinstance(node, ast.Call) and node.args:
                first = node.args[0]
                ordered_builtin = (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple", "enumerate", "iter")
                )
                join_call = (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                )
                if (ordered_builtin or join_call) and self._is_set_expr(first):
                    yield ctx.violation(self.id, first, self._MESSAGE)


# ---------------------------------------------------------------------------
# Structural contract rules
# ---------------------------------------------------------------------------

def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    """The ``@dataclass`` decorator node, bare or called, if present."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = (
            target.id
            if isinstance(target, ast.Name)
            else target.attr
            if isinstance(target, ast.Attribute)
            else None
        )
        if name == "dataclass":
            return deco
    return None


def _decorator_flag(deco: ast.AST, flag: str) -> bool:
    if not isinstance(deco, ast.Call):
        return False
    for kw in deco.keywords:
        if kw.arg == flag:
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


def _has_body_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for t in stmt.targets
        ):
            return True
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "__slots__"
        ):
            return True
    return False


@RULES.register(
    "frozen-spec-integrity",
    description="spec dataclasses stay frozen, slot-consistent and picklable",
)
class FrozenSpecIntegrity(LintRule):
    """Spec dataclasses must be ``frozen=True`` with picklable defaults.

    Everything named ``*Spec`` is part of the declarative layer: it is
    hashed into campaign identities, pickled across ``--jobs N`` worker
    processes, and stored in durable result stores.  A mutable spec can
    drift between hash time and run time; a ``lambda`` default cannot be
    pickled, so the first multi-process sweep dies in the executor.  If
    the module's idiom is slotted specs (any sibling ``*Spec`` dataclass
    declares slots), new specs must follow it — a single dict-carrying
    spec in a slotted family silently doubles per-cell memory.

    Example
    -------
    ```python
    from repro.analysis import lint_source

    bad = (
        "from dataclasses import dataclass\\n"
        "@dataclass\\n"
        "class RetrySpec:\\n"
        "    limit: int = 3\\n"
    )
    (v,) = lint_source(bad, rel="src/repro/campaigns/retry.py")
    assert (v.rule, v.line) == ("frozen-spec-integrity", 3)

    ok = bad.replace("@dataclass", "@dataclass(frozen=True)")
    assert lint_source(ok, rel="src/repro/campaigns/retry.py") == []
    ```
    """

    id = "frozen-spec-integrity"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        specs: List[Tuple[ast.ClassDef, ast.AST, bool]] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            deco = _dataclass_decorator(node)
            if deco is None or not node.name.endswith("Spec"):
                continue
            slotted = _decorator_flag(deco, "slots") or _has_body_slots(node)
            specs.append((node, deco, slotted))
        any_slotted = any(slotted for _, _, slotted in specs)
        for node, deco, slotted in specs:
            if not _decorator_flag(deco, "frozen"):
                yield ctx.violation(
                    self.id,
                    node,
                    f"spec dataclass {node.name!r} must be @dataclass("
                    "frozen=True): specs are hashed, pickled and stored",
                )
            for stmt in node.body:
                # Only field definitions: a lambda inside a *method* body
                # never ends up in the pickled instance state.
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Lambda):
                        yield ctx.violation(
                            self.id,
                            sub,
                            f"spec dataclass {node.name!r} has a lambda in a "
                            "field default; lambdas cannot be pickled across "
                            "--jobs N workers — use a module-level function",
                        )
            if any_slotted and not slotted:
                yield ctx.violation(
                    self.id,
                    node,
                    f"spec dataclass {node.name!r} breaks this module's "
                    "slotted-spec idiom; add slots=True (or __slots__)",
                )


@RULES.register(
    "registry-factory-contract",
    description="registered factories match their documented parameters",
)
class RegistryFactoryContract(LintRule):
    """Registered factories must match their ``Parameters`` docs.

    ``describe`` output, CLI ``--param`` coercion and campaign axis
    validation are all generated from a registered factory's keyword
    defaults plus its numpy-style ``Parameters`` docstring section.  A
    documented parameter the signature does not accept means ``describe``
    advertises a knob that raises at build time; a parameter with no
    default cannot be built from the CLI at all (the registry rejects it
    at import, but only when that module is actually imported — the rule
    catches it at lint time).

    Example
    -------
    ```python
    from repro.analysis import lint_source

    bad = (
        "from repro.scenarios import REGISTRY\\n"
        "@REGISTRY.register('demo')\\n"
        "def make(n_jobs: int = 2):\\n"
        "    'Demo.\\\\n\\\\n    Parameters\\\\n    ----------\\\\n"
        "    n_josb:\\\\n        oops, typo for n_jobs.\\\\n    '\\n"
    )
    (v,) = lint_source(bad, rel="src/repro/scenarios/demo.py")
    assert v.rule == "registry-factory-contract"
    assert "n_josb" in v.message
    ```
    """

    id = "registry-factory-contract"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(
                isinstance(deco, ast.Call)
                and isinstance(deco.func, ast.Attribute)
                and deco.func.attr == "register"
                and isinstance(deco.func.value, ast.Name)
                for deco in node.decorator_list
            ):
                continue
            args = node.args
            positional = list(args.posonlyargs) + list(args.args)
            n_without_default = len(positional) - len(args.defaults)
            sig_names = {a.arg for a in positional + list(args.kwonlyargs)}
            for arg in positional[:n_without_default]:
                yield ctx.violation(
                    self.id,
                    arg,
                    f"registered factory {node.name!r}: parameter "
                    f"{arg.arg!r} has no default; the registry builds from "
                    "keyword overrides only",
                )
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is None:
                    yield ctx.violation(
                        self.id,
                        arg,
                        f"registered factory {node.name!r}: keyword-only "
                        f"parameter {arg.arg!r} has no default",
                    )
            for doc_name in parse_param_docs(ast.get_docstring(node)):
                if doc_name not in sig_names:
                    yield ctx.violation(
                        self.id,
                        node,
                        f"registered factory {node.name!r} documents "
                        f"parameter {doc_name!r} in its Parameters section, "
                        "but the signature has no such parameter (describe "
                        "would advertise a knob that raises)",
                    )


#: Base classes whose subclasses legitimately carry instance dicts.
_SLOTS_EXEMPT_MARKERS = ("Exception", "Error", "Warning", "Enum", "Protocol")


@RULES.register(
    "hot-path-slots",
    description="sim/ and lustre/ hot-path classes declare __slots__",
)
class HotPathSlots(LintRule):
    """Classes in ``sim/`` and ``lustre/`` must declare ``__slots__``.

    These packages are the per-event allocation path: RPCs, events,
    timeouts, queue entries and trackers are created millions of times
    per run.  ``__slots__`` removes the per-instance ``__dict__`` —
    measurably faster attribute access and smaller instances (the PR 1/5
    overhauls relied on it) — and doubles as a typo guard: assigning a
    misspelled attribute raises instead of silently creating state the
    engine never reads.  Exception, Enum and Protocol types are exempt;
    anything else needs ``__slots__`` (dataclasses: ``slots=True``) or a
    pragma explaining why a dict is required.

    Example
    -------
    ```python
    from repro.analysis import lint_source

    bad = (
        "class Cursor:\\n"
        "    def __init__(self) -> None:\\n"
        "        self.pos = 0\\n"
    )
    (v,) = lint_source(bad, rel="src/repro/lustre/cursor.py")
    assert (v.rule, v.line) == ("hot-path-slots", 1)

    ok = bad.replace(
        "    def __init__", "    __slots__ = ('pos',)\\n\\n    def __init__"
    )
    assert lint_source(ok, rel="src/repro/lustre/cursor.py") == []
    ```
    """

    id = "hot-path-slots"

    @staticmethod
    def _exempt(node: ast.ClassDef) -> bool:
        for base in node.bases:
            text = ast.unparse(base)
            tail = text.split(".")[-1]
            if any(marker in tail for marker in _SLOTS_EXEMPT_MARKERS):
                return True
        return False

    @staticmethod
    def _assigns_instance_attrs(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.under("src/repro/sim/", "src/repro/lustre/"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or self._exempt(node):
                continue
            deco = _dataclass_decorator(node)
            if deco is not None:
                if not _decorator_flag(deco, "slots") and not _has_body_slots(
                    node
                ):
                    yield ctx.violation(
                        self.id,
                        node,
                        f"hot-path dataclass {node.name!r} must declare "
                        "slots=True (per-instance dicts cost memory and "
                        "attribute-access time on the event path)",
                    )
            elif self._assigns_instance_attrs(node) and not _has_body_slots(
                node
            ):
                yield ctx.violation(
                    self.id,
                    node,
                    f"hot-path class {node.name!r} must declare __slots__ "
                    "(per-instance dicts cost memory and attribute-access "
                    "time on the event path)",
                )


# ---------------------------------------------------------------------------
# Meta rules (engine-implemented; registered for list/describe)
# ---------------------------------------------------------------------------

@RULES.register(
    "unused-suppression",
    description="every pragma must still suppress something",
)
class UnusedSuppression(LintRule):
    """A pragma whose rule no longer fires is itself a violation.

    Suppressions are debt: each ``# repro: allow[...]`` documents a
    deliberate, reviewed exception.  When the excused code is fixed or
    deleted, the pragma must go too — otherwise it silently licenses the
    *next* violation someone writes on that line.  This meta rule is
    enforced by the engine after suppression matching and cannot itself
    be suppressed.

    Example
    -------
    ```python
    from repro.analysis import lint_source

    stale = "x = 1  # repro: allow[no-raw-random] reason=nothing here\\n"
    (v,) = lint_source(stale, rel="src/repro/core/x.py")
    assert (v.rule, v.line) == ("unused-suppression", 1)
    ```
    """

    id = "unused-suppression"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())


@RULES.register(
    "pragma-syntax",
    description="pragmas are well-formed and carry a reason=",
)
class PragmaSyntax(LintRule):
    """Malformed pragmas are violations, never silently ignored.

    A suppression that misspells its rule id, omits the mandatory
    ``reason=``, or garbles the syntax would otherwise *look* like an
    exemption while suppressing nothing.  The engine validates every
    comment that attempts the ``# repro:`` prefix and reports
    near-misses here; the underlying violation (if any) is reported
    unsuppressed alongside.  Cannot itself be suppressed.

    Example
    -------
    ```python
    from repro.analysis import lint_source

    src = (
        "import time\\n"
        "t = time.time()  # repro: allow[no-wallclock]\\n"
    )
    rules = sorted(v.rule for v in lint_source(src, rel="src/repro/core/x.py"))
    assert rules == ["no-wallclock", "pragma-syntax"]
    ```
    """

    id = "pragma-syntax"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())


def default_rule_ids() -> Sequence[str]:
    """Every registered rule id, sorted (the ``lint run`` default set)."""
    return RULES.names()
