"""Every example still imports.

The scripts under ``examples/`` are user-facing entry points that nothing
else imports, so a public name deleted from the library would otherwise
only fail in a user's terminal.  Each one guards ``main()`` behind
``__name__ == "__main__"``; loading it by path therefore runs exactly its
imports and definitions.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path, monkeypatch):
    # Examples prepend ../src to sys.path; keep that out of the test process.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
