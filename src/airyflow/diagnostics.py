"""Conserved quantities, the small-perturbation oracle, residual checks,
and empirical convergence orders.

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
from .errors import DegenerateBaseline, MissingSnapshots, NonPositiveError
from .geometry import ThetaLState
from .spectral import _derivative_symbol, l2_norm, spectral_derivative


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
    phi_hat: np.ndarray  # half spectrum of phi, m = 0..N/2
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
    return Observation(triple=conserved_quantities(state, k, k_s), k=k, phi_hat=phi_hat,
                       power=spectral.power_spectrum(phi_hat), **curve)


def relative_m3_error(series) -> tuple[np.ndarray, np.ndarray]:
    """Relative M3 drift xi_i = (M3_i - M3_0)/M3_0 along a trajectory.

    Returns the pointwise drift and its running max |xi|.
    """
    series = list(series)
    if not series:
        return np.array([]), np.array([])
    baseline = series[0].m3
    if abs(baseline) < 1e-14:
        raise DegenerateBaseline(f"|M3(0)| = {abs(baseline):.3e} is too small to normalize")
    xi = np.array([(t.m3 - baseline) / baseline for t in series])
    return xi, np.maximum.accumulate(np.abs(xi))


@dataclass(frozen=True)
class LinearOracleState:
    """Closed-form small-perturbation solution for a nearly circular curve.

    A radius profile r = R + delta_r cos(m alpha) - delta_i sin(m alpha)
    rotates at rate tau = (m^3 - 1.5 m)/R^3 with R fixed, so
    (delta_r, delta_i) traces a circle of radius delta0.
    """

    r: float
    delta_r: float
    delta_i: float
    tau: float
    m: int
    delta0: float

    @property
    def delta_magnitude(self) -> float:
        return math.hypot(self.delta_r, self.delta_i)

    def radius(self, alpha) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=np.float64)
        return self.r + self.delta_r * np.cos(self.m * alpha) - self.delta_i * np.sin(
            self.m * alpha
        )

    def curvature(self, alpha) -> np.ndarray:
        """First-order curvature 1/R + ((m^2-1)/R^2)(delta_r cos - delta_i sin)."""
        alpha = np.asarray(alpha, dtype=np.float64)
        wave = self.delta_r * np.cos(self.m * alpha) - self.delta_i * np.sin(self.m * alpha)
        return 1.0 / self.r + (self.m**2 - 1.0) / self.r**2 * wave


def linear_oracle(r0: float, delta0: float, m: int, t: float) -> LinearOracleState:
    """Linearized perturbed-circle solution at time t.

    Initial data is delta_r(0) = delta0, delta_i(0) = 0; the perturbation
    rotates with angular rate tau = (m^3 - 1.5 m)/r0^3.
    """
    if not r0 > 0:
        raise ValueError("r0 must be positive")
    if int(m) != m or m < 2:
        raise ValueError("perturbation wavenumber m must be an integer >= 2")
    m = int(m)
    tau = (m**3 - 1.5 * m) / r0**3
    return LinearOracleState(
        r=r0,
        delta_r=delta0 * math.cos(tau * t),
        delta_i=delta0 * math.sin(tau * t),
        tau=tau,
        m=m,
        delta0=delta0,
    )


@dataclass(frozen=True)
class LinearComparisonRecord:
    """Linear-vs-numerical radius and perturbation measures at one snapshot.

    The numerical perturbation is measured about the snapshot centroid:
    the reconstruction anchors the curve at a fixed point while material
    points slide tangentially, so the reconstructed curve acquires a
    rigid-motion offset that recentering removes.
    """

    time: float
    radius_linear: float
    radius_numeric: float
    delta_linear: float
    delta_numeric: float

    @property
    def radius_error(self) -> float:
        return self.radius_linear - self.radius_numeric

    @property
    def delta_error(self) -> float:
        return self.delta_linear - self.delta_numeric


def _recentered_radial(points) -> np.ndarray:
    x = points[:, 0] - np.mean(points[:, 0])
    y = points[:, 1] - np.mean(points[:, 1])
    return np.hypot(x, y)


def linear_comparison(snapshots, r0: float, delta0: float, m: int):
    """Compare trajectory snapshots against the linearized solution.

    ``snapshots`` is an iterable of (time, points) pairs from a run that
    started from perturbed_circle(r0, delta0, m).  The numerical base
    radius is recovered from the first snapshot, matching how the
    perturbation measure is normalized.
    """
    snapshots = list(snapshots)
    if not snapshots:
        return []
    r0_numeric = geometry.recover_radius(snapshots[0][1])
    records = []
    for time, points in snapshots:
        oracle = linear_oracle(r0, delta0, m, time)
        records.append(
            LinearComparisonRecord(
                time=time,
                radius_linear=r0,
                radius_numeric=geometry.recover_radius(points),
                delta_linear=oracle.delta_magnitude,
                delta_numeric=float(np.max(_recentered_radial(points) - r0_numeric)),
            )
        )
    return records


def mkdv_rhs(k: np.ndarray, length: float) -> np.ndarray:
    """Curvature rate k_sss + (3/2) k^2 k_s with spectral s-derivatives."""
    two_pi_over_l = 2.0 * np.pi / length
    k_s = two_pi_over_l * spectral_derivative(k, 1)
    k_sss = two_pi_over_l**3 * spectral_derivative(k, 3)
    return k_sss + 1.5 * k**2 * k_s


def curve_motion_rhs(k: np.ndarray, length: float) -> np.ndarray:
    """Curvature rate -V_ss + k_s T - k^2 V from the velocity decomposition,
    with normal velocity V = -k_s and tangential velocity T = k^2/2."""
    two_pi_over_l = 2.0 * np.pi / length
    k_s = two_pi_over_l * spectral_derivative(k, 1)
    v = -k_s
    v_ss = two_pi_over_l**2 * spectral_derivative(v, 2)
    t = 0.5 * k**2
    return -v_ss + k_s * t - k**2 * v


def mkdv_residual(states) -> float:
    """Max-norm residual of the curvature evolution over a state triple.

    Takes three consecutive, equally spaced states from one trajectory
    and compares the centered time difference of k against the spatial
    right-hand side at the middle state.  The residual is O(dt^2) plus
    spatial truncation for converged runs.
    """
    states = list(states)
    if len(states) != 3:
        raise MissingSnapshots(f"need exactly 3 consecutive states, got {len(states)}")
    t0, t1, t2 = (s.time for s in states)
    dt1, dt2 = t1 - t0, t2 - t1
    if not (dt1 > 0 and abs(dt1 - dt2) <= 1e-9 * dt1):
        raise ValueError("states must be equally spaced in time")
    k0, k1, k2 = (geometry.curvature(s) for s in states)
    k_t = (k2 - k0) / (t2 - t0)
    return float(np.max(np.abs(k_t - mkdv_rhs(k1, states[1].length))))


def restrict_to_grid(values: np.ndarray, n_coarse: int) -> np.ndarray:
    """Restrict samples on a nested finer grid to the coarse grid's nodes."""
    n_fine = values.size
    if n_fine % n_coarse:
        raise ValueError(f"grids do not nest: {n_fine} is not a multiple of {n_coarse}")
    return values[:: n_fine // n_coarse]


def state_difference_norm(a: ThetaLState, b: ThetaLState) -> float:
    """l2 norm of the tangent-angle difference on the coarser common grid.

    Finer grids are restricted to the coarser grid's nodes (grids nest),
    introducing no interpolation error.
    """
    va, vb = a.phi, b.phi
    n = min(va.size, vb.size)
    return l2_norm(restrict_to_grid(va, n) - restrict_to_grid(vb, n))


def convergence_order(errors) -> float:
    """log2 of the ratio of successive difference norms.

    ``errors`` holds the norms from a refinement sequence (factors of 2);
    with more than two entries the pairwise log2 ratios are averaged.
    Raises :class:`NonPositiveError` when a norm is below the measurable
    floor of 1e-15.
    """
    errors = [float(e) for e in errors]
    if len(errors) < 2:
        raise ValueError("need at least two error values")
    if any(e <= 1e-15 for e in errors):
        raise NonPositiveError("difference norm at or below the 1e-15 measurable floor")
    ratios = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    return float(np.mean(ratios))
