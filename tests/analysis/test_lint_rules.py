"""Per-rule fixture tests: exact rule-id / line / column expectations.

Each fixture module under ``fixtures/`` carries exactly one deliberate
violation (see its README); linting it under a pretend ``src/repro/...``
path must report that violation at the exact position, and the clean
fixture must report nothing.  Positions are 1-based (line and column),
matching the ``path:line:col`` report format editors understand.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> (pretend repo path, expected (rule, line, col) tuples)
EXPECTATIONS = {
    "raw_random.py": (
        "src/repro/workloads/raw_random.py",
        [("no-raw-random", 7, 12)],
    ),
    "wallclock.py": (
        "src/repro/core/wallclock.py",
        [("no-wallclock", 7, 12)],
    ),
    "environ.py": (
        "src/repro/experiments/environ.py",
        [("no-environ", 7, 17)],
    ),
    "refcount.py": (
        "src/repro/sim/refcount.py",
        [("no-refcount", 7, 12)],
    ),
    "assert_stmt.py": (
        "src/repro/lustre/assert_stmt.py",
        [("no-assert", 7, 5)],
    ),
    "float_sum.py": (
        "src/repro/core/float_sum.py",
        [("no-float-sum", 7, 12)],
    ),
    "calendar_seam.py": (
        "src/repro/lustre/calendar_seam.py",
        [("calendar-seam-only", 7, 5)],
    ),
    "dict_order.py": (
        "src/repro/metrics/dict_order.py",
        [("no-dict-order-leak", 5, 17)],
    ),
    "frozen_spec.py": (
        "src/repro/campaigns/frozen_spec.py",
        [("frozen-spec-integrity", 7, 1)],
    ),
    "registry_contract.py": (
        "src/repro/scenarios/registry_contract.py",
        [("registry-factory-contract", 7, 1)],
    ),
    "hot_path_slots.py": (
        "src/repro/lustre/hot_path_slots.py",
        [("hot-path-slots", 4, 1)],
    ),
    "unused_pragma.py": (
        "src/repro/core/unused_pragma.py",
        [("unused-suppression", 3, 1)],
    ),
    "pragma_missing_reason.py": (
        "src/repro/core/pragma_missing_reason.py",
        # The malformed pragma suppresses nothing, so the underlying
        # violation surfaces alongside the syntax finding.
        [("no-wallclock", 5, 7), ("pragma-syntax", 5, 20)],
    ),
    "clean.py": ("src/repro/lustre/clean.py", []),
}


def lint_fixture(name: str):
    rel, _ = EXPECTATIONS[name]
    return lint_source((FIXTURES / name).read_text(), rel=rel)


class TestFixtureExpectations:
    @pytest.mark.parametrize("name", sorted(EXPECTATIONS))
    def test_exact_positions(self, name):
        _, expected = EXPECTATIONS[name]
        got = [(v.rule, v.line, v.col) for v in lint_fixture(name)]
        assert got == expected

    def test_every_rule_has_a_fixture(self):
        from repro.analysis import RULES

        covered = {
            rule
            for _, expected in EXPECTATIONS.values()
            for rule, _, _ in expected
        }
        assert covered == set(RULES.names())

    def test_violation_formatting(self):
        (v,) = lint_fixture("raw_random.py")
        assert v.format() == (
            "src/repro/workloads/raw_random.py:7:12: [no-raw-random] "
            + v.message
        )
        assert "RngStreams" in v.message


class TestScoping:
    """The determinism rules guard src/repro/ only (rng.py is sanctioned)."""

    def test_tests_are_out_of_scope(self):
        bad = (FIXTURES / "raw_random.py").read_text()
        assert lint_source(bad, rel="tests/workloads/raw_random.py") == []

    def test_rng_module_is_sanctioned(self):
        bad = (FIXTURES / "raw_random.py").read_text()
        assert lint_source(bad, rel="src/repro/sim/rng.py") == []

    def test_engine_owns_the_calendar(self):
        bad = (FIXTURES / "calendar_seam.py").read_text()
        assert lint_source(bad, rel="src/repro/sim/engine.py") == []

    def test_engine_writes_the_clock(self):
        src = "def advance(env, t):\n    env.now = t\n"
        assert lint_source(src, rel="src/repro/sim/engine.py") == []
        assert lint_source(src, rel="tests/sim/test_clock.py") == []

    def test_slots_rule_scoped_to_hot_packages(self):
        bad = (FIXTURES / "hot_path_slots.py").read_text()
        assert lint_source(bad, rel="src/repro/campaigns/cursor.py") == []

    def test_refcount_reads_outside_the_package_are_fine(self):
        bad = (FIXTURES / "refcount.py").read_text()
        assert lint_source(bad, rel="tests/sim/test_calendar_oracle.py") == []

    def test_environ_reads_outside_the_package_are_fine(self):
        bad = (FIXTURES / "environ.py").read_text()
        assert lint_source(bad, rel="benchmarks/suite/run.py") == []
        assert lint_source(bad, rel="tests/experiments/environ.py") == []


class TestRuleEdgeCases:
    def test_import_alias_resolution(self):
        src = "import numpy as np\nx = np.random.default_rng(0)\n"
        (v,) = lint_source(src, rel="src/repro/core/alias.py")
        assert v.rule == "no-raw-random"
        assert "numpy.random.default_rng" in v.message

    def test_from_import_resolution(self):
        src = "from time import monotonic\nt = monotonic()\n"
        (v,) = lint_source(src, rel="src/repro/core/clock.py")
        assert v.rule == "no-wallclock"

    def test_outermost_chain_reported_once(self):
        src = "import numpy\nr = numpy.random.default_rng(1)\n"
        violations = lint_source(src, rel="src/repro/core/chain.py")
        assert len(violations) == 1

    @pytest.mark.parametrize(
        "line",
        ["env.now = t", "env.now += t", "del env.now", "env.now, x = t, 1", "self.now = t"],
    )
    def test_every_clock_write_flagged(self, line):
        src = f"def warp(self, env, t, x=0):\n    {line}\n"
        (v,) = lint_source(src, rel="src/repro/faults/warp.py")
        assert (v.rule, v.line) == ("calendar-seam-only", 2)
        assert "clock" in v.message

    def test_clock_reads_are_fine(self):
        src = "def stamp(rpc, env):\n    rpc.arrived = env.now + 0.0\n"
        assert lint_source(src, rel="src/repro/lustre/stamp.py") == []

    def test_sorted_set_is_fine(self):
        src = "def f(xs):\n    return list(sorted(set(xs)))\n"
        assert lint_source(src, rel="src/repro/metrics/ok.py") == []

    def test_set_union_into_loop_flagged(self):
        src = "def f(a, b):\n    for x in set(a) | set(b):\n        print(x)\n"
        (v,) = lint_source(src, rel="src/repro/metrics/union.py")
        assert v.rule == "no-dict-order-leak"

    def test_exception_classes_exempt_from_slots(self):
        src = (
            "class BoomError(ValueError):\n"
            "    def __init__(self, msg):\n"
            "        self.msg = msg\n"
            "        super().__init__(msg)\n"
        )
        assert lint_source(src, rel="src/repro/sim/errors.py") == []

    def test_frozen_spec_lambda_default_flagged(self):
        src = (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class HookSpec:\n"
            "    fn: object = field(default_factory=lambda: None)\n"
        )
        (v,) = lint_source(src, rel="src/repro/campaigns/hook.py")
        assert v.rule == "frozen-spec-integrity"
        assert "lambda" in v.message

    def test_lambda_in_spec_method_is_fine(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class SortSpec:\n"
            "    key: str = 'x'\n"
            "    def order(self, rows):\n"
            "        return sorted(rows, key=lambda r: r.t)\n"
        )
        assert lint_source(src, rel="src/repro/campaigns/sort.py") == []

    def test_registered_factory_missing_default_flagged(self):
        src = (
            "from repro.scenarios.registry import REGISTRY\n"
            "@REGISTRY.register('x')\n"
            "def make(n_jobs):\n"
            "    return n_jobs\n"
        )
        (v,) = lint_source(src, rel="src/repro/scenarios/x.py")
        assert v.rule == "registry-factory-contract"
        assert "no default" in v.message

    @pytest.mark.parametrize(
        "src",
        [
            "import os\nhome = os.getenv('HOME')\n",
            "import os\nhome = os.environb[b'HOME']\n",
            "import os as o\no.environ['SEED'] = '1'\n",
            "from os import environ\nseed = environ['SEED']\n",
        ],
    )
    def test_every_environment_read_flagged(self, src):
        (v,) = lint_source(src, rel="src/repro/cluster/env.py")
        assert (v.rule, v.line) == ("no-environ", 2)

    @pytest.mark.parametrize(
        "src, line",
        [
            ("total = sum(x for x in range(3))\n", 1),
            ("import builtins\ntotal = builtins.sum([0.1, 0.2])\n", 2),
            ("from builtins import sum as add\ntotal = add([0.1, 0.2])\n", 2),
            ("totals = list(map(sum, [[0.1], [0.2]]))\n", 1),
        ],
        ids=["call", "builtins-attribute", "builtins-alias", "passed-as-function"],
    )
    def test_every_builtin_sum_flagged(self, src, line):
        (v,) = lint_source(src, rel="src/repro/metrics/total.py")
        assert (v.rule, v.line) == ("no-float-sum", line)

    @pytest.mark.parametrize(
        "src",
        [
            "from repro.numeric import fold_sum\ntotal = fold_sum([0.1, 0.2])\n",
            "import numpy as np\ntotal = np.asarray([0.1]).sum()\n",
            "def sum(values):\n    return 0\ntotal = sum([0.1])\n",
            "from repro.numeric import fold_sum as sum\ntotal = sum([0.1])\n",
        ],
        ids=["fold_sum", "method", "local-def", "import-alias"],
    )
    def test_non_builtin_sums_are_fine(self, src):
        assert lint_source(src, rel="src/repro/metrics/total.py") == []

    def test_integer_sum_pragma_suppresses(self):
        src = (
            "total = sum([1, 2])  "
            "# repro: allow[no-float-sum] reason=integer counts\n"
        )
        assert lint_source(src, rel="src/repro/metrics/total.py") == []
        assert lint_source(src.split("  #")[0] + "\n", rel="tests/x.py") == []

    def test_other_os_names_are_fine(self):
        src = (
            "import os\n"
            "environ = {}\n"
            "path = os.path.join('a', environ.get('b', 'c'))\n"
        )
        assert lint_source(src, rel="src/repro/cluster/env.py") == []
