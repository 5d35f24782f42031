"""Golden-findings tests for the reprolint rule families.

Each known-bad fixture under ``fixtures/`` is a miniature ``repro/``
tree (the runner roots scope paths at the innermost ``repro`` directory)
and must produce exactly the expected rule ids on the expected lines —
no more, no less.  The fixtures are never imported; reprolint only
parses them.
"""

from pathlib import Path

import pytest

from repro.devtools.runner import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(subdir, select=None):
    # repo_root=FIXTURES: no docs/observability.md there, so the
    # doc-drift rules (RPL302/303) stay inert unless a test builds its
    # own catalog.
    findings, errors = lint_paths([FIXTURES / subdir], select=select, repo_root=FIXTURES)
    assert errors == []
    return findings


def rule_lines(findings):
    return sorted((f.rule, Path(f.path).name, f.line) for f in findings)


class TestDeterminismRules:
    def test_golden_findings(self):
        assert rule_lines(lint_fixture("determinism")) == [
            ("RPL101", "bad_determinism.py", 14),  # unseeded default_rng()
            ("RPL101", "bad_determinism.py", 15),  # legacy np.random.rand
            ("RPL102", "bad_determinism.py", 10),  # from random import ...
            ("RPL102", "bad_determinism.py", 16),  # random.random()
            ("RPL103", "bad_determinism.py", 17),  # time.time() in algorithms/
            ("RPL104", "bad_lease.py", 13),  # inline lease fallback
        ]

    def test_lease_fallback_hint_names_the_helper(self):
        (finding,) = lint_fixture("determinism", select={"RPL104"})
        assert "lease_deadline" in finding.hint

    def test_wall_clock_allowed_outside_algorithms(self):
        # bad_lease.py lives in repro/core/ (driver scope): its
        # time.time() call is legal lease bookkeeping, not RPL103.
        assert lint_fixture("determinism", select={"RPL103"}) == [
            f for f in lint_fixture("determinism", select={"RPL103"})
            if f.path.endswith("bad_determinism.py")
        ]


class TestLockRules:
    def test_golden_findings(self):
        assert rule_lines(lint_fixture("locks")) == [
            ("RPL201", "bad_locks.py", 15),  # unguarded self._count write
            ("RPL202", "bad_locks.py", 23),  # time.sleep under the lock
            ("RPL203", "bad_order.py", 17),  # A->B ...
            ("RPL203", "bad_order.py", 22),  # ... vs B->A
        ]

    def test_guarded_read_is_clean(self):
        findings = lint_fixture("locks", select={"RPL201"})
        assert all(f.line != 19 for f in findings)


class TestTelemetryRules:
    def test_only_the_unguarded_mutation_is_flagged(self):
        # The fixture exercises all three sanctioned guard idioms
        # (enclosing if, early return, hoisted instrument); only the
        # bare mutation may fire.
        assert rule_lines(lint_fixture("telemetry")) == [
            ("RPL301", "bad_metrics.py", 11),
        ]

    def _catalog_root(self, tmp_path, doc_text, code_text):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "observability.md").write_text(doc_text)
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "uses.py").write_text(code_text)
        return tmp_path

    DOC = """\
# Observability

| metric | type | description |
| --- | --- | --- |
| `repro_documented_total` | counter | In code and in the catalog. |
| `repro_stale_total` | counter | Documented but gone from code. |

| span | attributes |
| --- | --- |
| `fixture_span` | - |
| `stale_span` | - |
"""

    CODE = """\
from repro.telemetry.metrics import registry

_REGISTRY = registry()


def touch(tracer):
    if _REGISTRY.enabled:
        _REGISTRY.counter("repro_documented_total").inc()
        _REGISTRY.counter("repro_undocumented_total").inc()
    with tracer.span("fixture_span"):
        pass
    with tracer.span("mystery_span"):
        pass
"""

    def test_code_to_doc_drift(self, tmp_path):
        root = self._catalog_root(tmp_path, self.DOC, self.CODE)
        findings, errors = lint_paths([root / "repro"], select={"RPL302"}, repo_root=root)
        assert errors == []
        messages = sorted(f.message for f in findings)
        assert len(messages) == 2
        assert "repro_undocumented_total" in messages[0]
        assert "mystery_span" in messages[1]

    def test_doc_to_code_drift(self, tmp_path):
        root = self._catalog_root(tmp_path, self.DOC, self.CODE)
        findings, errors = lint_paths([root / "repro"], select={"RPL303"}, repo_root=root)
        assert errors == []
        assert sorted(f.message for f in findings) == [
            "documented metric 'repro_stale_total' no longer exists in code",
            "documented span 'stale_span' no longer exists in code",
        ]
        # Stale-catalog findings point into the doc, not into code.
        assert {f.path for f in findings} == {"docs/observability.md"}

    def test_partial_tree_lint_skips_reverse_drift(self, tmp_path):
        # With a `src/repro` layout, linting only a subtree cannot prove
        # a documented name is gone: RPL303 must stay silent, while
        # RPL302 (provable from the scanned files alone) still fires.
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "observability.md").write_text(self.DOC)
        core = tmp_path / "src" / "repro" / "core"
        core.mkdir(parents=True)
        (core / "uses.py").write_text(self.CODE)
        elsewhere = tmp_path / "src" / "repro" / "service"
        elsewhere.mkdir()
        (elsewhere / "other.py").write_text("x = 1\n")
        findings, errors = lint_paths(
            [core], select={"RPL302", "RPL303"}, repo_root=tmp_path
        )
        assert errors == []
        assert {f.rule for f in findings} == {"RPL302"}
        # The full-tree run still reports the stale entries.
        findings, errors = lint_paths(
            [tmp_path / "src"], select={"RPL303"}, repo_root=tmp_path
        )
        assert errors == []
        assert {f.rule for f in findings} == {"RPL303"}

    def test_matching_catalog_is_clean(self, tmp_path):
        doc = self.DOC.replace("| `repro_stale_total` | counter | Documented but gone from code. |\n", "")
        doc = doc.replace("| `stale_span` | - |\n", "")
        code = self.CODE.replace('        _REGISTRY.counter("repro_undocumented_total").inc()\n', "")
        code = code.replace('    with tracer.span("mystery_span"):\n        pass\n', "")
        root = self._catalog_root(tmp_path, doc, code)
        findings, errors = lint_paths(
            [root / "repro"], select={"RPL302", "RPL303"}, repo_root=root
        )
        assert errors == []
        assert findings == []


class TestAskTellRules:
    def test_golden_findings(self):
        findings = lint_fixture("asktell")
        assert rule_lines(findings) == [
            ("RPL401", "bad_algorithms.py", 8),  # missing _setup
            ("RPL401", "bad_algorithms.py", 8),  # missing `name`
            ("RPL401", "bad_algorithms.py", 11),  # overrides final ask()
            ("RPL402", "bad_algorithms.py", 30),  # async: overrides _tell_impl
        ]

    def test_final_override_message_names_class_and_method(self):
        findings = lint_fixture("asktell", select={"RPL401"})
        override = [f for f in findings if f.line == 11]
        assert len(override) == 1
        assert "Incomplete" in override[0].message
        assert "ask()" in override[0].message


@pytest.mark.parametrize("family", ["determinism", "locks", "telemetry", "asktell"])
def test_every_fixture_family_triggers(family):
    assert lint_fixture(family), f"fixture family {family!r} produced no findings"
