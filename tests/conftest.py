import numpy as np
import pytest

from airyflow import geometry, harness, schemes
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


def perturbation_error(delta0):
    """|delta_L - delta_N| at t = 0.1 from perturbed_circle(1, delta0, 2).

    cnadb at N = 512, dt = 1e-3; delta_N is the diagnostics probe's
    ``delta_n``, the radial excess about the centroid over the step-0
    effective radius, and delta_L the linear oracle's perturbation.
    """
    cfg = harness.RunConfig(shape="perturbed_circle",
                            shape_params=dict(r0=1.0, delta0=delta0, m=2),
                            n=512, dt=1e-3, t_final=0.1, scheme="cnadb")
    probe = harness._DiagnosticsProbe(cfg)
    schemes.integrate(harness.build_initial_state(cfg), cfg, cfg.t_final, [(cfg.steps, probe)])
    return abs(linear_oracle(1.0, delta0, 2, cfg.t_final).delta_magnitude - probe.rows[-1].delta_n)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
