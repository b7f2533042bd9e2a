"""One place decides how a trajectory ends: ``harness._BlockObserver.run``;
and one how a run or a study ends: ``run_experiment`` or ``_run_study``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "airyflow").glob("*.py"))
RUNNER = "harness._BlockObserver.run"
ENDINGS = {"harness.run_experiment", "harness._run_study"}


def scoped_nodes(path):
    """Every node of a source file with the dotted name of the class or function
    it sits in (the module's name at the top level)."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}"
            yield child, inner
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), path.stem)


def named(node):
    """The names an expression mentions: ``X`` and the last part of ``a.X``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def scopes_of(match):
    return [scope for path in SOURCES for node, scope in scoped_nodes(path) if match(node)]


def test_only_the_runner_catches_an_interrupt():
    # a bare except or BaseException would catch it too
    catching = scopes_of(lambda node: isinstance(node, ast.ExceptHandler) and (
        node.type is None or named(node.type) & {"KeyboardInterrupt", "BaseException"}))
    assert catching and set(catching) == {RUNNER}


def test_only_the_runner_builds_a_run_result():
    building = scopes_of(lambda node: isinstance(node, ast.Call) and (
        "RunResult" in named(node.func)))
    assert building and set(building) == {RUNNER}


def test_only_a_run_or_the_study_runner_builds_a_block_observer():
    building = scopes_of(lambda node: isinstance(node, ast.Call) and (
        "_BlockObserver" in named(node.func)))
    assert set(building) == ENDINGS


def test_only_a_run_or_the_study_runner_raises_the_interrupt():
    raising = scopes_of(lambda node: isinstance(node, ast.Raise) and node.exc is not None and (
        "KeyboardInterrupt" in named(node.exc)))
    assert set(raising) == ENDINGS
