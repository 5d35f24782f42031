"""Every definition in ``src/`` is named by the program, not only by a test.

A function or class that nothing in ``src/``, ``benchmarks/`` or
``examples/`` names outside its own definition is reached by no user
path: only its tests keep it alive, and it goes together with them.  A
name counts wherever it appears as an identifier, an attribute or a
string that is an identifier (``getattr`` dispatch), except in an
``__all__`` list or an import, which only re-export it (an import under
another name is a use).

What is found by dispatch is exempt: classes added to a registry by a
decorator (``@register_rule``, ``@register("name")``), the HTTP handler's
``do_*`` and ``log_message``, dunders, and methods that override a method
of a base class defined in ``src/``.  The few definitions kept on purpose
are listed in :data:`KEPT`, each with its reason.

Stdlib only and it imports nothing it scans, so it also runs without the
test extra::

    python tests/test_reachable_definitions.py
"""

from __future__ import annotations

import ast
import functools
import re
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the code a user runs: the library, the benchmarks and the examples
PROGRAM = ("src", "benchmarks", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
REGISTRARS = {"register", "register_rule"}

#: ``path::qualified name`` -> why it stays although no user path names it
KEPT = {
    "repro/core/evaluation.py::CacheBackend.poll":
        "benchmarks/perf/perf_tracing.py reads it, and goes with the next change there",
    "repro/service/cache.py::JobCache":
        "benchmarks/perf/perf_tracing.py reads it, and goes with the next change there",
    "repro/service/server.py::CalibrationServer._make_cache":
        "benchmarks/perf/perf_tracing.py reads it, and goes with the next change there",
    "repro/service/store.py::EvaluationStore.lease_count":
        "oracle of the store model and the lease tests",
    "repro/service/store.py::EvaluationStore.failure_count":
        "oracle of the store model and the quarantine tests",
    "repro/service/store.py::EvaluationStore.clear_failure":
        "oracle of the store model: the quarantine's manual release",
    "repro/service/store.py::EvaluationStore.fingerprints":
        "oracle of the store model: the keys a store holds",
    "repro/service/spool.py::JobSpool.read_result":
        "the reader of a served job's result and tell log (ROADMAP item 16)",
    "repro/core/evaluation.py::lease_deadline":
        "reprolint RPL104's hint names it as the fix",
    "repro/simgrid/engine.py::SimulationEngine.cancel_activity":
        "tests/simgrid/test_fluid_invariants.py draws it",
    "repro/simgrid/resources.py::Resource.set_capacity":
        "tests/simgrid/test_fluid_invariants.py draws it",
    "repro/service/fleet/faults.py::FaultyObjective":
        "the point-addressed faults of tests/core/test_evaluation_contract.py",
    "repro/service/fleet/faults.py::FaultyObjective.is_failing_point":
        "the oracle of tests/core/test_evaluation_contract.py's faulted runs",
    "repro/service/fleet/faults.py::FaultyObjective.is_hanging_point":
        "the oracle of the chaos tests' hung evaluations",
}


def _program_files(root: Path):
    for directory in PROGRAM:
        yield from sorted((root / directory).rglob("*.py"))


def _names(tree: ast.AST) -> list[tuple[str, int]]:
    """``(name, line)`` for every name the module uses."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(id(sub) for sub in ast.walk(node.value))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.extend((alias.name, node.lineno) for alias in node.names
                         if alias.asname not in (None, alias.name))
        elif isinstance(node, ast.Name):
            names.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            names.append((node.attr, node.lineno))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and IDENTIFIER.match(node.value)
            and id(node) not in exported
        ):
            names.append((node.value, node.lineno))
    return names


def _definitions(body, path, scope, classes, out):
    """Collect ``(path, node, enclosing class or None)`` for every function
    and class, and each class's method and base names (for the override
    exemption)."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = scope if isinstance(scope, ast.ClassDef) else None
            out.append((path, node, owner))
            if isinstance(node, ast.ClassDef):
                bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                         for b in node.bases]
                methods = {n.name for n in node.body
                           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
                entry = classes.setdefault(node.name, (set(), set()))
                entry[0].update(methods)
                entry[1].update(b for b in bases if b)
            _definitions(node.body, path, node, classes, out)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                _definitions(getattr(node, field, None) or [], path, scope, classes, out)


def _inherited(class_name: str, classes, seen=None) -> set[str]:
    """Method names the bases of ``class_name`` (defined in ``src/``) define."""
    seen = set() if seen is None else seen
    found: set[str] = set()
    for base in classes.get(class_name, (set(), set()))[1]:
        if base in seen or base not in classes:
            continue
        seen.add(base)
        found |= classes[base][0] | _inherited(base, classes, seen)
    return found


def _exempt(node, owner, classes) -> bool:
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return True
    if isinstance(node, ast.ClassDef):
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if isinstance(target, ast.Name) and target.id in REGISTRARS:
                return True
        return False
    if owner is None:
        return False
    return (
        name.startswith("do_")
        or name == "log_message"
        or name in _inherited(owner.name, classes)
    )


@functools.cache
def scan(root: Path = ROOT) -> tuple[list[str], set[str]]:
    """``(unreached, defined)``: the definitions nothing in the program
    under ``root`` names, as ``path:line qualname``, and every
    definition's key."""
    src = root / "src"
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path in _program_files(root):
        for name, line in _names(ast.parse(path.read_text(), filename=str(path))):
            uses.setdefault(name, []).append((path, line))
    definitions: list = []
    classes: dict = {}
    for path in sorted((src / "repro").rglob("*.py")):
        _definitions(ast.parse(path.read_text(), filename=str(path)).body,
                     path, None, classes, definitions)
    unreached, defined = [], set()
    for path, node, owner in definitions:
        qualname = f"{owner.name}.{node.name}" if owner is not None else node.name
        key = f"{path.relative_to(src).as_posix()}::{qualname}"
        defined.add(key)
        if key in KEPT or _exempt(node, owner, classes):
            continue
        outside = [
            (where, line) for where, line in uses.get(node.name, ())
            if not (where == path and node.lineno <= line <= node.end_lineno)
        ]
        if not outside:
            unreached.append(f"src/{path.relative_to(src).as_posix()}:{node.lineno} {qualname}")
    return unreached, defined


def test_every_definition_is_named_by_the_program():
    unreached, _ = scan()
    assert not unreached, (
        "named only by tests (delete them with their tests, or add to KEPT "
        "with a reason):\n  " + "\n  ".join(unreached)
    )


def test_every_kept_definition_still_exists():
    _, defined = scan()
    assert not set(KEPT) - defined, sorted(set(KEPT) - defined)



# --------------------------------------------------------------------- #
# the scan's own rules, on small program trees
# --------------------------------------------------------------------- #
def _unreached(root: Path, files: dict[str, str]) -> list[str]:
    """Write ``files`` (paths relative to ``root``) and return what the
    scan reports, as ``path:line qualname``."""
    (root / "src" / "repro").mkdir(parents=True, exist_ok=True)
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    unreached, _ = scan(root)
    return unreached


def _qualnames(root: Path, files: dict[str, str]) -> list[str]:
    return [line.split(" ", 1)[1] for line in _unreached(root, files)]


def test_a_function_nothing_names_is_reported_with_its_line(tmp_path):
    assert _unreached(tmp_path, {"src/repro/mod.py": """\
        def used():
            return 1

        def dead():
            return 2

        VALUE = used()
    """}) == ["src/repro/mod.py:4 dead"]


def test_a_method_nothing_names_is_reported(tmp_path):
    assert _qualnames(tmp_path, {"src/repro/mod.py": """\
        class Thing:
            def run(self):
                return 1

            def idle(self):
                return 2

        Thing().run()
    """}) == ["Thing.idle"]


def test_a_name_inside_its_own_body_is_not_a_use(tmp_path):
    assert _qualnames(tmp_path, {"src/repro/mod.py": """\
        def countdown(n):
            return countdown(n - 1) if n else 0
    """}) == ["countdown"]


def test_a_use_in_benchmarks_counts(tmp_path):
    assert _qualnames(tmp_path, {
        "src/repro/mod.py": "def helper():\n    return 1\n",
        "benchmarks/bench_mod.py": "from repro.mod import helper\nhelper()\n",
    }) == []


def test_a_use_in_examples_counts(tmp_path):
    assert _qualnames(tmp_path, {
        "src/repro/mod.py": "def helper():\n    return 1\n",
        "examples/demo.py": "import repro.mod\nrepro.mod.helper()\n",
    }) == []


def test_a_use_only_in_tests_does_not_count(tmp_path):
    assert _qualnames(tmp_path, {
        "src/repro/mod.py": "def helper():\n    return 1\n",
        "tests/test_mod.py": "from repro.mod import helper\nassert helper() == 1\n",
    }) == ["helper"]


def test_a_string_that_is_the_name_is_a_use(tmp_path):
    assert _qualnames(tmp_path, {"src/repro/mod.py": """\
        import sys

        def dispatched():
            return 1

        def mentioned():
            return 2

        getattr(sys.modules[__name__], "dispatched")()
        print("mentioned() is only prose")
    """}) == ["mentioned"]


def test_an_all_entry_or_a_plain_import_is_not_a_use(tmp_path):
    assert _qualnames(tmp_path, {
        "src/repro/mod.py": '__all__ = ["helper"]\n\ndef helper():\n    return 1\n',
        "src/repro/other.py": "from repro.mod import helper\n",
    }) == ["helper"]


def test_an_import_under_another_name_is_a_use(tmp_path):
    assert _qualnames(tmp_path, {
        "src/repro/mod.py": "def helper():\n    return 1\n",
        "src/repro/other.py": "from repro.mod import helper as _helper\n",
    }) == []


def test_registry_classes_and_dunders_are_exempt(tmp_path):
    assert _qualnames(tmp_path, {"src/repro/mod.py": """\
        def register_rule(cls):
            return cls

        def register(name):
            return lambda cls: cls

        def plain(cls):
            return cls

        @register_rule
        class Rule:
            def __repr__(self):
                return "Rule"

        @register("named")
        class Named:
            pass

        @plain
        class Decorated:
            pass
    """}) == ["Decorated"]


def test_request_handler_methods_are_exempt(tmp_path):
    assert _qualnames(tmp_path, {"src/repro/mod.py": """\
        from http.server import BaseHTTPRequestHandler

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                pass

            def log_message(self, format, *args):
                pass

            def unused(self):
                pass

        HANDLER = Handler
    """}) == ["Handler.unused"]


def test_an_override_of_a_src_base_method_is_exempt(tmp_path):
    assert _qualnames(tmp_path, {
        "src/repro/base.py": """\
            class Base:
                def hook(self):
                    return 0
        """,
        "src/repro/mod.py": """\
            from repro.base import Base

            class Child(Base):
                def hook(self):
                    return 1

            class Grandchild(Child):
                def hook(self):
                    return 2

                def extra(self):
                    return 3

            Grandchild()
        """,
    }) == ["Base.hook", "Grandchild.extra"]


def test_a_kept_definition_is_not_reported(tmp_path, monkeypatch):
    monkeypatch.setitem(KEPT, "repro/mod.py::dead", "kept on purpose")
    assert _unreached(tmp_path, {"src/repro/mod.py": "def dead():\n    return 1\n"}) == []
    assert "repro/mod.py::dead" in scan(tmp_path)[1]


if __name__ == "__main__":
    unreached, defined = scan()
    stale = sorted(set(KEPT) - defined)
    for line in unreached:
        print(f"unreached: {line}")
    for key in stale:
        print(f"kept but not defined: {key}")
    sys.exit(1 if unreached or stale else 0)
