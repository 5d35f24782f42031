"""Every third-party module the code imports is declared in ``pyproject.toml``.

An undeclared import works on a machine that happens to have the package and
fails on a fresh install (or a CI job installing from the metadata).  The
library may import only the runtime dependencies; the tests may also import
the ``test`` extra.  Imports inside functions count too.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def distribution_names(requirements: list[str]) -> set[str]:
    """``numpy>=1.22`` -> ``numpy``, normalised to an import-style name."""
    names = set()
    for requirement in requirements:
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def top_level_imports(path: Path) -> set[str]:
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            imported.add(node.module.split(".")[0])
    return imported


def third_party_imports(directory: str) -> dict[str, set[str]]:
    """Module -> files under ``directory`` importing it, stdlib and repro left out."""
    found: dict[str, set[str]] = {}
    for path in sorted((ROOT / directory).rglob("*.py")):
        for module in top_level_imports(path):
            if module != "repro" and module not in sys.stdlib_module_names:
                found.setdefault(module, set()).add(str(path.relative_to(ROOT)))
    return found


def undeclared(directory: str, declared: set[str]) -> dict[str, set[str]]:
    found = third_party_imports(directory)
    return {module: files for module, files in found.items() if module not in declared}


@pytest.fixture(scope="module")
def project():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def test_the_library_imports_only_runtime_dependencies(project):
    assert not undeclared("src", distribution_names(project["dependencies"]))


def test_the_tests_import_only_runtime_and_test_dependencies(project):
    declared = distribution_names(project["dependencies"])
    declared |= distribution_names(project["optional-dependencies"]["test"])
    assert not undeclared("tests", declared)


def test_nothing_imports_networkx():
    for directory in ("src", "tests"):
        assert "networkx" not in third_party_imports(directory)
