"""The names the benchmark's probes wrap, and the call counts they read.

``perfbench/probes.py`` times layers by replacing module attributes, and
counts integrator steps as calls of ``schemes.init_step`` plus
``schemes.step``.  ``perfbench/worker.py`` imports package names at
module level.  These tests pin that contract: a renamed or deleted
function would break the benchmark before it measured anything.  They
also run the worker's own output checks on smoke runs, so a change that
fails one shows here before the benchmark runs.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from airyflow import diagnostics, geometry, harness, schemes
from airyflow.errors import BlowUp
from airyflow.geometry import ThetaLState
from airyflow.schemes import SchemeConfig, integrate
from airyflow.spectral import FILTERS

from conftest import catalog_state
from oracles import per_state_observe

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_names_resolve():
    for module, name in load_perfbench("probes")._SPANNED:
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"


def test_worker_imports_resolve(monkeypatch):
    # the worker runs from perfbench/ and imports its siblings by name
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    worker = load_perfbench("worker")
    assert sorted(worker.WORKLOADS) == ["converge-space", "filter-study", "preset-e"]


@pytest.mark.parametrize("workload", ["preset-e", "filter-study", "converge-space"])
def test_worker_output_checks_pass(monkeypatch, tmp_path, workload):
    # the benchmark's own checks on a smoke run, under the untraced probes a
    # repeat installs: converge-space's check reads the trajectories they
    # record and takes M3 of single states
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    worker = load_perfbench("worker")
    for module, name in ((harness, "build_initial_state"), (schemes, "integrate")):
        monkeypatch.setattr(module, name, getattr(module, name))  # restored after the test
    probes = worker.Probes(trace=False)
    probes.install()
    run, check = worker.WORKLOADS[workload]
    checks, _ = check(run(tmp_path, True), probes, tmp_path)
    assert checks and all(ok for _, ok, _ in checks), checks
    assert probes.trajectories


def test_integrate_calls_observers_with_step_and_state():
    # the probes wrap each observer as callback(step, state), read the step and
    # forward the second argument unread: an int step and phi's row, positionally
    calls = []
    state, _ = catalog_state("ellipse", 32, a=1.0, b=0.8)
    integrate(state, SchemeConfig(scheme="cnadb", dt=1e-4), 5e-4,
              observers=[(2, lambda *args, **kwargs: calls.append((args, kwargs)))])
    assert [args[0] for args, _ in calls] == [0, 2, 4, 5]
    for args, kwargs in calls:
        assert kwargs == {} and len(args) == 2
        assert type(args[0]) is int
        assert isinstance(args[1], np.ndarray)
        assert args[1].shape == (32,) and args[1].dtype == np.float64


def test_conserved_quantities_of_one_state():
    # the worker's converge-space check calls it on single states
    state, _ = catalog_state("cardioid", 128)
    state = integrate(state, SchemeConfig(scheme="cnadb", dt=1e-5), 3e-5)
    triple = diagnostics.conserved_quantities(state)
    assert isinstance(triple, diagnostics.ConservedTriple)
    obs = per_state_observe(state)
    assert triple == diagnostics.ConservedTriple(obs.m1, obs.m2, obs.m3)
    assert all(type(value) is float for value in dataclasses.astuple(triple))

# replaced by Probes.install on every repeat, besides the _SPANNED names
_INSTALLED = (
    (harness, "build_initial_state"),
    (schemes, "integrate"),
    (geometry, "resample_equal_arclength"),
)


@pytest.mark.parametrize("module, name", _INSTALLED, ids=lambda x: getattr(x, "__name__", x))
def test_installed_names_resolve(module, name):
    assert callable(getattr(module, name)), f"{module.__name__}.{name}"


@pytest.mark.parametrize("filter", FILTERS)
@pytest.mark.parametrize("scheme", schemes.SCHEMES)
def test_step_and_nonlinear_calls_per_trajectory(monkeypatch, scheme, filter):
    # a resolved filter leaves every step going through the module's names
    calls = dict.fromkeys(("init_step", "step", "nonlinear_term"), 0)
    for name in calls:
        original = getattr(schemes, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(schemes, name, counted)
    state, _ = catalog_state("ellipse", 32, a=1.0, b=0.8)
    integrate(state, SchemeConfig(scheme=scheme, dt=1e-4, filter=filter), 7e-4)
    assert calls == {"init_step": 1, "step": 6, "nonlinear_term": 7}


@pytest.mark.parametrize("scheme", schemes.SCHEMES)
def test_guard_reports_unobserved_step(monkeypatch, scheme):
    # NL = 1 on a zero state grows the mean mode by exactly dt per step
    # under every scheme: max|phi| = 0.25, 0.5, 0.75 trips the guard at step 3
    monkeypatch.setattr(schemes, "BLOWUP_LIMIT", 0.6)
    n = 16
    state = ThetaLState(phi=np.zeros(n), length=2 * np.pi)
    cfg = SchemeConfig(scheme=scheme, dt=0.25)
    seen = []
    with pytest.raises(BlowUp) as err:
        integrate(state, cfg, 2.5, observers=[(100, lambda j, s: seen.append(j))],
                  nonlinear=lambda *args: np.ones(n))
    assert err.value.step == 3 and seen == [0]


def test_guard_catches_non_finite_on_unobserved_step(monkeypatch):
    calls = [0]
    original = schemes.nonlinear_term

    def poisoned(*args):
        calls[0] += 1
        nl = original(*args)
        return nl * np.nan if calls[0] == 3 else nl

    monkeypatch.setattr(schemes, "nonlinear_term", poisoned)
    state, _ = catalog_state("circle", 16)
    with pytest.raises(BlowUp) as err:
        integrate(state, SchemeConfig(scheme="cnadb", dt=1e-3), 0.01,
                  observers=[(100, lambda j, s: None)])
    assert err.value.step == 3
