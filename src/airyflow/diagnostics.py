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


def _integrate_ds(values: np.ndarray, length: float) -> float:
    # trapezoidal rule on the periodic grid: spectrally accurate
    return float(np.mean(values) * length)


def _curvature_and_slope(phi_hat: np.ndarray, length: float):
    """k = (2*pi/L)(1 + D phi) and k_s = (2*pi/L) D k from the half spectrum of phi."""
    n = 2 * (phi_hat.size - 1)
    scale = 2.0 * np.pi / length
    d_phi = _derivative_symbol(n, 1) * phi_hat
    k = scale * (1.0 + np.fft.irfft(d_phi, n, norm="forward"))
    k_s = scale**2 * np.fft.irfft(_derivative_symbol(n, 1) * d_phi, n, norm="forward")
    return k, k_s


def conserved_quantities(state: ThetaLState, k=None, k_s=None) -> ConservedTriple:
    """M1, M2, M3 of the state's curvature, ds = (L/2*pi) d alpha.

    ``k`` and ``k_s`` are the curvature and its arc-length derivative at
    the nodes, computed from the state unless the caller already has them.
    """
    if k is None:
        k, k_s = _curvature_and_slope(np.fft.rfft(state.phi, norm="forward"), state.length)
    return ConservedTriple(
        m1=_integrate_ds(k, state.length),
        m2=_integrate_ds(k**2, state.length),
        m3=_integrate_ds(0.5 * k_s**2 - 0.125 * k**4, state.length),
        time=state.time,
    )


@dataclass(frozen=True)
class Observation:
    """What the run's observers read off one state (see :func:`observe`)."""

    triple: ConservedTriple
    k: np.ndarray  # curvature at the nodes
    power: np.ndarray  # |phi_hat|^2 mirrored to m = -N/2+1 ... N/2
    points: Optional[np.ndarray] = None  # the reconstructed curve, (N, 2)
    radius: Optional[float] = None  # effective radius sqrt(area / pi)
    centroid: Optional[tuple[float, float]] = None


def observe(state: ThetaLState, closure_tol: Optional[float] = None) -> Observation:
    """Every observer quantity of a state from one ``rfft`` of phi.

    k and k_s take one inverse transform each and M1-M3 are means of them.
    With a ``closure_tol`` the curve is reconstructed too, by one complex
    antiderivative of its tangent, and raises :class:`ClosureViolation`
    like :func:`geometry.reconstruct_curve`; its area
    pi * mean(x y_alpha - y x_alpha) uses that tangent less its mean, the
    tangent of the closed curve, and no further derivatives.  Without one
    the curve is skipped and ``points``, ``radius`` and ``centroid`` are
    None.
    """
    phi_hat = np.fft.rfft(state.phi, norm="forward")
    k, k_s = _curvature_and_slope(phi_hat, state.length)
    curve = {}
    if closure_tol is not None:
        tangent = geometry.curve_tangent(state)
        points = geometry.reconstruct_curve(state, closure_tol, tangent)
        tangent = tangent - np.mean(tangent)
        x, y = points[:, 0], points[:, 1]
        area = abs(np.pi * float(np.mean(x * tangent.imag - y * tangent.real)))
        curve = dict(points=points, radius=float(np.sqrt(area / np.pi)),
                     centroid=(float(np.mean(x)), float(np.mean(y))))
    return Observation(triple=conserved_quantities(state, k, k_s), k=k,
                       power=spectral.power_spectrum(phi_hat), **curve)


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
