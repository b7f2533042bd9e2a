"""numpy is the package's only runtime dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"numpy", "airyflow", *sys.stdlib_module_names}
SOURCES = sorted((ROOT / "src" / "airyflow").glob("*.py"))


def imported_modules(path):
    """Top-level names of the modules a source file imports; relative imports are the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "airyflow" if node.level else node.module.split(".")[0]


def numpy_imports(path):
    """Dotted names a source file imports from numpy: a module, or a name in one."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        yield from (name for name in names if name.split(".")[0] == "numpy")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert set(imported_modules(path)) <= ALLOWED


def test_numpy_is_the_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]


def test_the_one_private_numpy_import_is_spectrals_pocketfft():
    # spectral.rfft/irfft call numpy's pocketfft gufuncs directly; no other
    # module reaches past numpy's public names, or names numpy.fft at all
    private = {(path.name, name) for path in SOURCES for name in numpy_imports(path)
               if any(part.startswith("_") for part in name.split("."))}
    assert private == {("spectral.py", "numpy.fft._pocketfft_umath")}
    naming = {path.name for path in SOURCES
              if re.search(r"\b(np|numpy)\.fft\b", path.read_text())}
    assert naming == {"spectral.py"}
