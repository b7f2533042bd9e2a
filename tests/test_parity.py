"""Determinism: each of ``tools/parity.py``'s configs, cut to 20 steps and run
twice in one process, writes the same bytes (manifest times removed)."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from airyflow.harness import ConvergenceStudyConfig

STEPS = 20


def load_parity():
    path = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
    spec = importlib.util.spec_from_file_location("tools_parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity = load_parity()


def cut(cfg):
    """``cfg`` ended at its 20th step: a study's comparison time too."""
    if isinstance(cfg, ConvergenceStudyConfig):
        t0 = STEPS * cfg.base.dt
        return replace(cfg, base=replace(cfg.base, t_final=t0), comparison_time=t0)
    return replace(cfg, t_final=STEPS * cfg.dt)


@pytest.mark.parametrize("name", list(parity.CONFIGS))
def test_config_writes_the_same_bytes_twice(name, tmp_path, monkeypatch):
    kind, build = parity.CONFIGS[name]
    monkeypatch.setitem(parity.CONFIGS, name, (kind, lambda harness: cut(build(harness))))
    trees, figures = (tmp_path / "a", tmp_path / "b"), []
    for tree in trees:
        tree.mkdir()
        figures.append(parity.run_config(name, tree))
        parity.drop_times(tree)
    files = [sorted(path.relative_to(tree) for path in tree.rglob("*") if path.is_file())
             for tree in trees]
    assert files[0] and files[0] == files[1]
    for rel in files[0]:
        assert (trees[0] / rel).read_bytes() == (trees[1] / rel).read_bytes(), rel
    assert figures[0] == figures[1]
