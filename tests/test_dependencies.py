"""numpy is the package's only runtime dependency."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"numpy", "airyflow", *sys.stdlib_module_names}


def imported_modules(path):
    """Top-level names of the modules a source file imports; relative imports are the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "airyflow" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "airyflow").glob("*.py")),
                         ids=lambda path: path.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert set(imported_modules(path)) <= ALLOWED


def test_numpy_is_the_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
