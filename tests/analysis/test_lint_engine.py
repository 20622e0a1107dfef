"""Engine behaviour: discovery, reports, rule selection, and the repo gate.

The last test class is the PR's point: the real tree lints clean, every
suppression in it carries a ``reason=``, and the linter's own output is
deterministic — sorted, stable, byte-identical across runs.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_TARGETS,
    RULES,
    lint_paths,
    lint_source,
)
from repro.analysis.engine import discover_files

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestDiscovery:
    def test_skips_cache_dirs(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        pycache = tmp_path / "pkg" / "__pycache__"
        pycache.mkdir()
        (pycache / "mod.cpython-311.py").write_text("x = 1\n")
        files = discover_files([Path("pkg")], tmp_path)
        assert [rel for _, rel in files] == ["pkg/mod.py"]

    def test_deterministic_order(self, tmp_path):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text("x = 1\n")
        files = discover_files([Path(".")], tmp_path)
        assert [rel for _, rel in files] == ["a.py", "b.py", "c.py"]

    def test_explicit_missing_target_raises(self, tmp_path):
        try:
            lint_paths(paths=["no/such/dir"], root=tmp_path)
        except FileNotFoundError as exc:
            assert "no/such/dir" in str(exc)
        else:
            raise AssertionError("expected FileNotFoundError")

    def test_missing_default_targets_skipped(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "ok.py").write_text("x = 1\n")
        report = lint_paths(root=tmp_path)  # no benchmarks/, no examples/
        assert report.ok and report.files_checked == 1


class TestReport:
    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "broken.py").write_text("def f(:\n")
        report = lint_paths(root=tmp_path)
        (v,) = report.violations
        assert v.rule == "pragma-syntax"
        assert "does not parse" in v.message

    def test_json_schema(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "bad.py").write_text(
            "import random\nx = random.random()\n"
        )
        report = lint_paths(root=tmp_path)
        data = report.to_json_dict()
        assert data["version"] == 1
        assert data["ok"] is False
        assert data["files_checked"] == 1
        assert set(RULES.names()) == set(data["rules"])
        (vio,) = data["violations"]
        assert vio["rule"] == "no-raw-random"
        assert vio["path"] == "src/repro/bad.py"
        assert isinstance(vio["line"], int) and isinstance(vio["col"], int)

    def test_text_summary_line(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "ok.py").write_text("x = 1\n")
        report = lint_paths(root=tmp_path)
        assert report.format_text().endswith(
            "0 violation(s) in 1 file(s) checked (0 suppressed by pragma)"
        )

    def test_violations_sorted(self):
        src = "import time\nimport random\nx = random.random()\nt = time.time()\n"
        violations = lint_source(src, rel="src/repro/core/multi.py")
        keys = [(v.path, v.line, v.col, v.rule) for v in violations]
        assert keys == sorted(keys)


class TestRuleSelection:
    SRC = "import time\nimport random\nx = random.random()\nt = time.time()\n"

    def test_single_rule_subset(self):
        violations = lint_source(
            self.SRC, rel="src/repro/core/multi.py", rules=["no-wallclock"]
        )
        assert [v.rule for v in violations] == ["no-wallclock"]

    def test_other_rules_pragmas_stay_legal_under_subset(self):
        src = (
            "import random\n"
            "x = random.random()"
            "  # repro: allow[no-raw-random] reason=other rule's business\n"
        )
        # Linting only no-wallclock must not flag the (unexercised)
        # no-raw-random pragma as unknown or unused.
        violations = lint_source(
            src, rel="src/repro/core/x.py", rules=["no-wallclock"]
        )
        assert violations == []


class TestRepoGate:
    """The real tree holds its own contracts."""

    @pytest.fixture(scope="class")
    def repo_report(self):
        """One lint of the whole tree, shared by the tests below."""
        return lint_paths(root=REPO_ROOT)

    def test_repo_lints_clean(self, repo_report):
        assert repo_report.ok, "\n" + repo_report.format_text()
        assert repo_report.files_checked > 50

    def test_default_targets_exist_here(self):
        assert (REPO_ROOT / DEFAULT_TARGETS[0]).is_dir()

    def test_every_repo_pragma_has_a_reason(self):
        from repro.analysis.model import parse_pragmas

        known = set(RULES.names())
        offenders = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            pragmas, errors = parse_pragmas(
                path.read_text(encoding="utf-8"), known_rules=known
            )
            offenders.extend(f"{path}:{line}" for line, _, _ in errors)
            offenders.extend(
                f"{path}:{p.line}" for p in pragmas if not p.reason
            )
        assert offenders == []

    def test_report_is_deterministic(self, repo_report):
        a = repo_report.to_json()
        b = lint_paths(root=REPO_ROOT).to_json()
        assert a == b
