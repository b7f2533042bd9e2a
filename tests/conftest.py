import numpy as np
import pytest

from airyflow import geometry
from airyflow.spectral import grid_nodes


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
