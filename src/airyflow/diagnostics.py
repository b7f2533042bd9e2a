"""What a run reads off a state (:func:`observe`: invariants, curvature,
spectrum, curve), its relative M3 drift, and convergence-study orders.

The flow conserves three integrals of the curvature,

    M1 = int k ds,   M2 = int k^2 ds,   M3 = int (k_s^2/2 - k^4/8) ds,

interpreted as mass, momentum, and energy.  M1 is the turning number
times 2*pi and is conserved to roundoff; M3 is the most sensitive to the
scheme and its relative drift is the primary accuracy measure used
throughout the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry, spectral
from .errors import NonPositiveError
from .geometry import ThetaLState
from .spectral import _derivative_symbol, l2_norm


@dataclass(frozen=True)
class ConservedTriple:
    """The three invariants evaluated at one instant."""

    m1: float
    m2: float
    m3: float
    time: float


def _fill_integrands(rows: np.ndarray, phi_a, phi_aa, length: float) -> np.ndarray:
    """Write k, k^2 and k_s^2/2 - k^4/8 into rows 0-2 and return k.

    k = (2*pi/L)(1 + phi_alpha) and k_s = (2*pi/L)^2 phi_alpha_alpha at the
    nodes; L times a row's mean, the trapezoidal rule on the periodic
    grid and so spectrally accurate, is M1, M2 or M3.  k^4 is k^2 squared,
    one product per node, where ``k**4`` would call ``pow``.
    """
    scale = 2.0 * np.pi / length
    k, k2, m3 = rows[0], rows[1], rows[2]
    np.add(phi_a, 1.0, out=k)
    k *= scale
    np.multiply(k, k, out=k2)
    np.multiply(phi_aa, phi_aa, out=m3)
    m3 *= 0.5 * scale**4
    m3 -= 0.125 * (k2 * k2)
    return k


def conserved_quantities(state: ThetaLState, means=None) -> ConservedTriple:
    """M1, M2, M3 of the state's curvature, ds = (L/2*pi) d alpha.

    ``means`` are the node means of the three integrands of
    :func:`_fill_integrands`, which :func:`observe` passes; without them
    the triple is ``observe(state).triple``, read off the one pass.
    """
    if means is None:
        return observe(state).triple
    m1, m2, m3 = (means * state.length).tolist()
    return ConservedTriple(m1=m1, m2=m2, m3=m3, time=state.time)


@dataclass(frozen=True)
class Observation:
    """What the run's observers read off one state, every field from the one
    pass of :func:`observe`, with or without its closure check."""

    triple: ConservedTriple
    k: np.ndarray  # curvature at the nodes
    power: np.ndarray  # |phi_hat|^2 mirrored to m = -N/2+1 ... N/2
    points: np.ndarray  # the reconstructed curve, (N, 2)
    radius: float  # effective radius sqrt(area / pi)
    centroid: tuple[float, float]
    closure: float  # closure defect: the larger of |mean x_alpha| and |mean y_alpha|


def observe(state: ThetaLState, closure_tol: Optional[float] = None) -> Observation:
    """Every observer quantity of a state in one stacked pass.

    phi and the two tangent rows of :func:`geometry.curve_tangent` share
    one 3-row ``rfft``; its phi row gives the power spectrum and the
    spectra of phi_alpha and phi_alpha_alpha, and its tangent rows'
    mean slot the closure defect.  :func:`geometry.reconstruct_curve`
    builds the curve, its antiderivative riding one 4-row ``irfft`` with
    phi_alpha and phi_alpha_alpha (for k and k_s), and raises
    :class:`ClosureViolation` if the defect exceeds ``closure_tol``;
    ``None`` checks nothing.  M1-M3, the area integrand
    x y_alpha - y x_alpha and the centroid are the means of one (6, N)
    stack of rows.
    """
    n = state.n
    tangent = geometry.curve_tangent(state)
    spectra = np.fft.rfft(np.vstack((state.phi, tangent)), norm="forward")
    phi_hat, tangent_hat = spectra[0], spectra[1:]
    d = _derivative_symbol(n, 1)
    phi_a_hat = d * phi_hat
    points, (phi_a, phi_aa) = geometry.reconstruct_curve(
        state, closure_tol, tangent_hat, np.stack((phi_a_hat, d * phi_a_hat)))
    rows = np.empty((6, n))
    rows[4:] = points.T
    cross = points.T * tangent[::-1]  # x t_y and y t_x
    np.subtract(cross[0], cross[1], out=rows[3])
    k = _fill_integrands(rows, phi_a, phi_aa, state.length)
    means = rows.sum(axis=1) / n  # np.mean's bits, without its Python-level overhead
    # the closed curve's tangent is the tangent less its mean (mu_x, mu_y),
    # which takes mu_y cx - mu_x cy off the integrand's mean
    mu_x, mu_y = tangent_hat[:, 0].real.tolist()
    area = abs(np.pi * float(means[3] - mu_y * means[4] + mu_x * means[5]))
    return Observation(triple=conserved_quantities(state, means[:3]), k=k,
                       power=spectral.power_spectrum(phi_hat), points=points,
                       radius=float(np.sqrt(area / np.pi)),
                       centroid=(float(means[4]), float(means[5])),
                       closure=max(abs(mu_x), abs(mu_y)))


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
