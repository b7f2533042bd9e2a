"""What a run reads off a state (:func:`observe`: invariants, curvature,
spectrum, curve), its relative M3 drift, and convergence-study orders.

The flow conserves three integrals of the curvature,

    M1 = int k ds,   M2 = int k^2 ds,   M3 = int (k_s^2/2 - k^4/8) ds,

interpreted as mass, momentum, and energy.  M1, 2*pi per turn of the
tangent, is conserved to roundoff; M3 is the most sensitive to the
scheme and its relative drift is the primary accuracy measure used
throughout the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, spectral
from .errors import NonPositiveError
from .geometry import ThetaLState
from .spectral import _derivative_symbol, grid_nodes, irfft, l2_norm, rfft


@dataclass(frozen=True)
class ConservedTriple:
    """M1, M2, M3 of one state, as floats."""

    m1: float
    m2: float
    m3: float


def conserved_quantities(state: ThetaLState) -> ConservedTriple:
    """M1, M2, M3 of one state's curvature, ds = (L/2*pi) d alpha: the
    fields of :func:`observe` on its one row, as floats."""
    obs = observe(state.phi[None], state.length, state.anchor)
    return ConservedTriple(float(obs.m1[0]), float(obs.m2[0]), float(obs.m3[0]))


@dataclass(frozen=True)
class Observation:
    """What the run's observers read off a block of S states of N nodes,
    every field from the one pass of :func:`observe`; row i of each field is state i's."""

    m1: np.ndarray  # (S,)
    m2: np.ndarray  # (S,)
    m3: np.ndarray  # (S,)
    k: np.ndarray  # curvature at the nodes, (S, N)
    max_curvature: np.ndarray  # max |k|, (S,)
    power: np.ndarray  # |phi_hat|^2 mirrored to m = -N/2+1 ... N/2, (S, N)
    tail: np.ndarray  # the largest |phi_hat_m|^2 for m > N/4, (S,)
    points: np.ndarray  # the reconstructed curves, (S, N, 2)
    radius: np.ndarray  # effective radius sqrt(area / pi), (S,)
    centroid: np.ndarray  # (S, 2)
    reach: np.ndarray  # the farthest node's distance from the centroid, (S,)
    closure: np.ndarray  # closure defect: the larger of |mean x_alpha| and |mean y_alpha|, (S,)


def observe(phi: np.ndarray, length: float, anchor) -> Observation:
    """Every observer quantity of S states of one run in one pass:
    ``phi`` (S, N) at the grid nodes, sharing the run's ``length`` and
    (x, y) ``anchor``.  A state's rows are bitwise the same in any
    block.  It measures and never raises: whether a ``closure`` defect
    ends a run is the run's decision.

    Each field takes its own transforms: phi's :func:`spectral.rfft`
    gives the power spectra and the spectra of phi_alpha and
    phi_alpha_alpha (for k and k_s), which come back by one
    :func:`spectral.irfft`; the tangent rows (x_alpha, y_alpha) =
    (L/2*pi)(cos theta, sin theta), theta = alpha + phi, take one more
    ``rfft``, whose mean slots are the closure defects and from which
    :func:`geometry.reconstruct_curve` builds the curves from the anchor.
    M1-M3, the area integrand x y_alpha - y x_alpha and the centroid are
    row means, and max |k|, the reach and the tail are row maxima.
    """
    n = phi.shape[1]
    tangent = np.empty((2, *phi.shape))  # the x and y rows
    theta = np.add(phi, grid_nodes(n), out=tangent[1])
    np.cos(theta, out=tangent[0])
    np.sin(theta, out=theta)
    tangent *= length / (2.0 * np.pi)
    phi_hat, tangent_hat = rfft(phi), rfft(tangent)
    d = _derivative_symbol(n)
    slopes = np.empty((2, *phi_hat.shape), dtype=np.complex128)  # of phi_alpha, phi_alpha_alpha
    np.multiply(d, phi_hat, out=slopes[0])
    np.multiply(d, slopes[0], out=slopes[1])
    phi_a, phi_aa = irfft(slopes)
    del slopes
    points = geometry.reconstruct_curve(anchor, tangent_hat)
    curve = points.transpose(2, 0, 1)  # the x and y rows
    # k = (2 pi/L)(1 + phi_alpha), k^2 and k_s^2/2 - k^4/8 (k_s = (2 pi/L)^2 phi_alpha_alpha,
    # k^4 = k^2 k^2): a row's mean, scaled by L, is M1-M3
    rows = np.empty((4, *phi.shape))
    scale = 2.0 * np.pi / length
    k, k2, m3 = rows[:3]
    np.add(phi_a, 1.0, out=k)
    k *= scale
    np.multiply(k, k, out=k2)
    np.multiply(phi_aa, phi_aa, out=m3)
    m3 *= 0.5 * scale**4
    m3 -= 0.125 * (k2 * k2)
    cross = curve * tangent[::-1]  # x t_y and y t_x
    np.subtract(cross[0], cross[1], out=rows[3])
    del cross, phi_a, phi_aa  # before the reductions below, beside which they would peak
    # np.mean's bits, without its Python-level overhead
    means, centroid = rows.sum(axis=2) / n, curve.sum(axis=2) / n
    # the closed curve's tangent is the tangent less its mean (mu_x, mu_y),
    # which takes mu_y cx - mu_x cy off the integrand's mean
    mu_x, mu_y = tangent_hat[:, :, 0].real
    area = np.abs(np.pi * (means[3] - mu_y * centroid[0] + mu_x * centroid[1]))
    # the farthest node from the centroid, its max over squared distances (sqrt is monotone)
    offset = curve - centroid[:, :, None]
    offset *= offset
    power = spectral.power_spectrum(phi_hat)  # m = N/4+1 ... N/2 from column 3N/4 on
    return Observation(*(means[:3] * length), k=k,
                       max_curvature=np.maximum(k.max(axis=1), -k.min(axis=1)), power=power,
                       tail=power[:, 3 * n // 4:].max(axis=1), points=points,
                       radius=np.sqrt(area / np.pi), centroid=centroid.T,
                       reach=np.sqrt((offset[0] + offset[1]).max(axis=1)),
                       closure=np.maximum(np.abs(mu_x), np.abs(mu_y)))


def m3_drift(m3: float, m3_0: float) -> float:
    """Relative M3 drift xi = (M3 - M3_0)/M3_0 against the step-0 value."""
    return (m3 - m3_0) / m3_0


def state_difference_norm(a: ThetaLState, b: ThetaLState) -> float:
    """l2 norm of the tangent-angle difference on the coarser common grid.

    Grid sizes are powers of two, so grids nest: the finer one is taken
    at the coarser one's nodes, introducing no interpolation error.
    """
    n = min(a.n, b.n)
    return l2_norm(a.phi[:: a.n // n] - b.phi[:: b.n // n])


def convergence_order(err_coarse: float, err_fine: float) -> float:
    """log2(err_coarse / err_fine): the order of one refinement by a factor of 2.

    Raises :class:`NonPositiveError` when a norm is below the measurable
    floor of 1e-15.
    """
    if min(err_coarse, err_fine) <= 1e-15:
        raise NonPositiveError("difference norm at or below the 1e-15 measurable floor")
    return math.log2(err_coarse / err_fine)
