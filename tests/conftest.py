from dataclasses import replace

import numpy as np
import pytest

from airyflow import diagnostics, geometry, harness, schemes, spectral
from airyflow.geometry import ThetaLState
from airyflow.spectral import grid_nodes

from oracles import linear_oracle


def band_limited_field(n, max_mode, rng, scale=1.0):
    """Random smooth periodic samples with content only up to max_mode."""
    alpha = grid_nodes(n)
    out = np.zeros(n)
    for m in range(1, max_mode + 1):
        out += rng.normal(0.0, scale) * np.cos(m * alpha)
        out += rng.normal(0.0, scale) * np.sin(m * alpha)
    return out


def catalog_state(shape, n, **params):
    """Equal-arc-length tangent-angle state for a catalog curve."""
    curve = geometry.catalog_curve(shape, **params)
    points, length = geometry.resample_equal_arclength(curve, n)
    return geometry.extract_theta_l(points, length), points


def observe_states(states):
    """:func:`diagnostics.observe` of the block of ``states``, which share one
    length and one anchor as one run's states do."""
    first = states[0]
    assert all((s.length, s.anchor) == (first.length, first.anchor) for s in states)
    return diagnostics.observe(np.array([s.phi for s in states]), first.length, first.anchor)


def state_observer(initial, dt, callback):
    """An ``integrate`` observer that calls ``callback(step, state)`` with the
    state at each step it sees: its phi row copied into a ThetaLState at time
    ``initial.time + step * dt``, with ``initial``'s length and anchor."""
    return lambda j, phi: callback(
        j, ThetaLState(phi, initial.length, initial.time + j * dt, initial.anchor))


def observed_states(initial, cfg, t_final, stride=1, nonlinear=None):
    """The states ``schemes.integrate`` hands its observers every ``stride`` steps."""
    states = []
    schemes.integrate(initial, cfg, t_final,
                      [(stride, state_observer(initial, cfg.dt, lambda j, s: states.append(s)))],
                      nonlinear)
    return states


#: numpy's own transforms, none of which the package calls
NUMPY_TRANSFORMS = ("np.fft.rfft", "np.fft.irfft", "np.fft.fft", "np.fft.ifft")


def count_transforms(monkeypatch):
    """Count the calls of spectral.rfft and spectral.irfft, patched in every
    package module that looks them up, and of numpy's own transforms.

    Returns the counts, keyed "rfft", "irfft" and :data:`NUMPY_TRANSFORMS`,
    and the list of (key, input shape) of the calls, in call order."""
    counts, shapes = dict.fromkeys(("rfft", "irfft", *NUMPY_TRANSFORMS), 0), []
    targets = [(np.fft, key.removeprefix("np.fft."), key) for key in NUMPY_TRANSFORMS]
    targets += [(module, name, name) for module in (diagnostics, geometry, schemes, spectral)
                for name in ("rfft", "irfft") if hasattr(module, name)]
    for module, name, key in targets:
        original = getattr(module, name)

        def counted(a, *args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            shapes.append((_key, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts, shapes


def fed_observer(states, closure_tol):
    """The block observer of a run from ``states[0]`` with dt = 0.125, holding the
    phi rows of ``states`` as those due at steps 0, 1, ...; its ``flush`` observes
    them and checks their closure against ``closure_tol``."""
    cfg = harness.RunConfig(shape="circle", n=states[0].n, dt=0.125, t_final=1.0, scheme="cn")
    observer = harness._BlockObserver(cfg, states[0], closure_tol)
    for step, state in enumerate(states):
        observer.watch("rows")(step, state.phi)
    return observer


def perturbation_error(delta0):
    """|delta_L - delta_N| at t = 0.1 from perturbed_circle(1, delta0, 2).

    cnadb at N = 512, dt = 1e-3; delta_N is the diagnostics rows'
    ``delta_n``, the radial excess about the centroid over the step-0
    effective radius, and delta_L the linear oracle's perturbation.
    """
    cfg = harness.RunConfig(shape="perturbed_circle",
                            shape_params=dict(r0=1.0, delta0=delta0, m=2),
                            n=512, dt=1e-3, t_final=0.1, scheme="cnadb")
    observer = harness._BlockObserver(cfg, harness.build_initial_state(cfg), cfg.closure_tol)
    result = observer.run([(cfg.steps, observer.watch("rows"))])
    assert result.status == "completed", result.error
    delta_l = linear_oracle(1.0, delta0, 2, cfg.t_final).delta_magnitude
    return abs(delta_l - result.rows[-1].delta_n)


#: criterion 4's filter study: ADB, ADBDPR and ADBK to t = 0.5 on the E ellipse
CRITERION_4 = harness.RunConfig(shape="ellipse", shape_params=dict(a=1.0, b=0.5), n=512,
                                dt=1e-4, t_final=0.5, scheme="adb", diagnostic_stride=100)


@pytest.fixture(scope="session")
def criterion_4_study(tmp_path_factory):
    """(config, result) of the criterion-4 filter study, run once a session,
    its CSVs and manifest written to the config's ``output_dir``."""
    cfg = replace(CRITERION_4, output_dir=tmp_path_factory.mktemp("criterion-4"))
    return cfg, harness.run_filter_study(cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
