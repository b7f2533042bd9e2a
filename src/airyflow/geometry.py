"""Closed-curve geometry: the shape catalog, equal-arc-length resampling,
tangent-angle extraction/reconstruction, curvature, and shape statistics.

A curve is represented either parametrically (samples plus optional
analytic evaluators) or by its tangent angle theta(alpha) = alpha +
phi(alpha) together with its total length L.  Under the equal-arc-length
parametrization s(alpha) = alpha*L/(2*pi), so curvature is
k = theta_s = (2*pi/L)(1 + phi_alpha).

All internal curves are counterclockwise; clockwise input is rejected
rather than silently flipped, since normal/curvature sign conventions
depend on orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import spectral
from .errors import (
    ClosureViolation,
    InvalidParameter,
    NoConvergence,
    NotRegular,
    UnknownShape,
    WindingError,
)
from .spectral import GridField, grid_nodes, spectral_antiderivative, spectral_derivative

DEFAULT_CLOSURE_TOL = 1e-8
DEFAULT_RESAMPLE_TOL = 1e-12
_NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class ParametricCurve:
    """Closed planar curve sampled at uniform parameter values.

    ``x`` and ``y`` hold samples at alpha_k = 2*pi*k/N.  When the curve
    comes from the analytic catalog, ``x_func``/``y_func`` evaluate it
    exactly at arbitrary parameters; otherwise evaluation falls back to
    trigonometric interpolation of the samples.
    """

    x: np.ndarray
    y: np.ndarray
    x_func: Optional[Callable] = field(default=None, repr=False)
    y_func: Optional[Callable] = field(default=None, repr=False)
    orientation: str = "ccw"

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64).copy()
        y = np.asarray(self.y, dtype=np.float64).copy()
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y samples must be 1-D arrays of equal length")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size

    def evaluate(self, beta) -> tuple[np.ndarray, np.ndarray]:
        """Curve position at arbitrary parameter values."""
        beta = np.asarray(beta, dtype=np.float64)
        if self.x_func is not None and self.y_func is not None:
            return self.x_func(beta), self.y_func(beta)
        return (
            spectral.trig_interpolate(self.x, beta),
            spectral.trig_interpolate(self.y, beta),
        )


@dataclass(frozen=True)
class ThetaLState:
    """Tangent-angle representation of a closed curve at one instant.

    ``phi`` is the periodic deviation theta(alpha) - alpha; ``length`` is
    the (flow-invariant) total arc length; ``anchor`` is the curve point
    at alpha = 0, carried so the curve can be reconstructed.
    """

    phi: GridField
    length: float
    time: float = 0.0
    anchor: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not self.length > 0.0:
            raise ValueError("curve length must be positive")

    @property
    def n(self) -> int:
        return self.phi.n

    def theta(self) -> np.ndarray:
        """Unwrapped tangent angle theta = alpha + phi at the nodes."""
        return grid_nodes(self.n) + self.phi.values


@dataclass(frozen=True)
class CurvatureField:
    """Curvature samples at the equal-arc-length nodes s_j = j*L/N."""

    k: GridField

    @property
    def values(self) -> np.ndarray:
        return self.k.values


def _as_points(points) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    return pts[:, 0], pts[:, 1]


# ---------------------------------------------------------------------------
# shape catalog


def _ellipse(a: float, b: float):
    if a <= 0 or b <= 0:
        raise InvalidParameter(f"ellipse semi-axes must be positive, got a={a}, b={b}")
    return (lambda t: a * np.cos(t)), (lambda t: b * np.sin(t))


def _perturbed_circle(r0: float, delta0: float, m: int):
    if r0 <= 0:
        raise InvalidParameter(f"base radius must be positive, got {r0}")
    if delta0 < 0 or r0 - delta0 <= 0:
        raise InvalidParameter(
            f"perturbation must satisfy 0 <= delta0 < r0, got delta0={delta0}, r0={r0}"
        )
    if int(m) != m or m < 1:
        raise InvalidParameter(f"perturbation wavenumber must be a positive integer, got {m}")
    m = int(m)

    def radius(t):
        return r0 + delta0 * np.cos(m * t)

    return (lambda t: radius(t) * np.cos(t)), (lambda t: radius(t) * np.sin(t))


def _cardioid():
    fx = lambda t: np.cos(t) + 0.35 * np.sin(2 * t)
    fy = lambda t: np.sin(t) + 0.7 * np.sin(t) ** 2
    return fx, fy


_CATALOG = {
    "circle": (("r",), lambda r=1.0: _ellipse(r, r)),
    "ellipse": (("a", "b"), lambda a=1.0, b=0.5: _ellipse(a, b)),
    "perturbed_circle": (
        ("r0", "delta0", "m"),
        lambda r0=1.0, delta0=0.1, m=2: _perturbed_circle(r0, delta0, m),
    ),
    "pc3": ((), lambda: _perturbed_circle(1.0, 0.4, 3)),
    "cardioid": ((), _cardioid),
}


def sample_catalog_curve(shape: str, n: int, **params) -> ParametricCurve:
    """Analytic catalog curve sampled at n uniform parameter nodes.

    Known shapes: circle(r), ellipse(a, b), perturbed_circle(r0, delta0, m),
    pc3, cardioid.  All are simple, counterclockwise, and 2*pi-periodic.
    """
    key = shape.lower()
    if key not in _CATALOG:
        raise UnknownShape(f"unknown shape {shape!r}; known: {sorted(_CATALOG)}")
    allowed, factory = _CATALOG[key]
    extra = set(params) - set(allowed)
    if extra:
        raise InvalidParameter(f"shape {shape!r} does not take parameters {sorted(extra)}")
    fx, fy = factory(**params)
    alpha = grid_nodes(n)
    return ParametricCurve(x=fx(alpha), y=fy(alpha), x_func=fx, y_func=fy)


# ---------------------------------------------------------------------------
# resampling and the theta-L representation


def resample_equal_arclength(
    curve: ParametricCurve, n: int, tol: float = DEFAULT_RESAMPLE_TOL
) -> tuple[np.ndarray, float]:
    """Resample a regular closed curve at n points uniform in arc length.

    The cumulative arc length is built from the spectral antiderivative of
    s_alpha and inverted by Newton iteration on its trigonometric
    interpolant, so the construction is spectrally accurate end to end.
    Returns the (n, 2) points and the total length L.  ``tol`` is relative
    to L.
    """
    alpha = grid_nodes(n)
    xs, ys = curve.evaluate(alpha)
    x_a = spectral_derivative(GridField(xs), 1).values
    y_a = spectral_derivative(GridField(ys), 1).values
    s_a = np.hypot(x_a, y_a)
    if np.min(s_a) <= 0.0:
        raise NotRegular("curve has a vanishing tangent (s_alpha <= 0)")
    length = 2.0 * np.pi * float(np.mean(s_a))

    # s(beta) = (L/2pi) beta + periodic part, 0 at beta = 0; strictly increasing since s_a > 0
    periodic = spectral_antiderivative(GridField(s_a - np.mean(s_a))).values
    periodic = periodic - periodic[0]
    targets = np.arange(n) * length / n
    # Newton starts from s at the nodes, exact there, inverted by linear interpolation
    at_nodes = length / (2.0 * np.pi) * alpha + periodic
    beta = np.interp(targets, np.append(at_nodes, length), np.append(alpha, 2.0 * np.pi))
    tol_abs = tol * length
    for _ in range(_NEWTON_MAX_ITER):
        resid = length / (2.0 * np.pi) * beta + spectral.trig_interpolate(periodic, beta) - targets
        # update before the convergence test: the final step polishes the
        # just-in-tolerance residual down to the interpolation floor
        beta = beta - resid / spectral.trig_interpolate(s_a, beta)
        if np.max(np.abs(resid)) <= tol_abs:
            break
    else:
        raise NoConvergence(
            f"arc-length inversion did not reach {tol_abs:.3e} in {_NEWTON_MAX_ITER} iterations"
        )
    px, py = curve.evaluate(beta)
    return np.column_stack([px, py]), length


def _wrap_to_pi(angles: np.ndarray) -> np.ndarray:
    return (angles + np.pi) % (2.0 * np.pi) - np.pi


def extract_theta_l(points, length: float, time: float = 0.0) -> ThetaLState:
    """Tangent-angle state from equal-arc-length samples of a closed curve.

    theta is computed from spectral derivatives via atan2 and unwrapped so
    consecutive increments lie in (-pi, pi); the represented curve must
    turn by exactly +2*pi per loop (counterclockwise, simple).
    """
    x, y = _as_points(points)
    n = x.size
    x_a = spectral_derivative(GridField(x), 1).values
    y_a = spectral_derivative(GridField(y), 1).values
    theta_raw = np.arctan2(y_a, x_a)
    steps = _wrap_to_pi(np.diff(theta_raw, append=theta_raw[:1]))
    turning = float(np.sum(steps))
    if abs(turning - 2.0 * np.pi) > 1e-6:
        raise WindingError(
            f"total turning {turning:.6f} is not +2*pi; curve must be "
            "simple and counterclockwise"
        )
    theta = theta_raw[0] + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    phi = theta - grid_nodes(n)
    return ThetaLState(
        phi=GridField(phi),
        length=float(length),
        time=time,
        anchor=(float(x[0]), float(y[0])),
    )


def reconstruct_curve(state: ThetaLState, closure_tol: float = DEFAULT_CLOSURE_TOL) -> np.ndarray:
    """Curve points from a tangent-angle state, anchored at state.anchor.

    Integrates (x_alpha, y_alpha) = s_alpha (cos theta, sin theta) with
    s_alpha = L/(2*pi).  The integrand must have (near-)zero mean for the
    curve to close; the mean below tolerance is dropped, which makes the
    reconstructed polygon exactly periodic.
    """
    theta = state.theta()
    s_a = state.length / (2.0 * np.pi)
    integrand_x = s_a * np.cos(theta)
    integrand_y = s_a * np.sin(theta)
    mean_x = float(np.mean(integrand_x))
    mean_y = float(np.mean(integrand_y))
    if abs(mean_x) > closure_tol or abs(mean_y) > closure_tol:
        raise ClosureViolation(mean_x, mean_y, closure_tol)
    fx = spectral_antiderivative(GridField(integrand_x)).values
    fy = spectral_antiderivative(GridField(integrand_y)).values
    x = state.anchor[0] + fx - fx[0]
    y = state.anchor[1] + fy - fy[0]
    return np.column_stack([x, y])


def curvature(state: ThetaLState) -> CurvatureField:
    """Curvature k = theta_s = (2*pi/L)(1 + phi_alpha) at the nodes."""
    phi_a = spectral_derivative(state.phi, 1).values
    return CurvatureField(GridField(2.0 * np.pi / state.length * (1.0 + phi_a)))


def point_curvature(points) -> np.ndarray:
    """Curvature from point samples, k = (x_a y_aa - x_aa y_a) / s_a^3."""
    x, y = _as_points(points)
    x_a = spectral_derivative(GridField(x), 1).values
    y_a = spectral_derivative(GridField(y), 1).values
    x_aa = spectral_derivative(GridField(x), 2).values
    y_aa = spectral_derivative(GridField(y), 2).values
    s_a = np.hypot(x_a, y_a)
    return (x_a * y_aa - x_aa * y_a) / s_a**3


def enclosed_area(points) -> float:
    """Enclosed area via the spectrally accurate contour integral.

    Area = (1/2) |oint (x y_alpha - y x_alpha) d alpha|; the absolute
    value normalizes orientation.
    """
    x, y = _as_points(points)
    x_a = spectral_derivative(GridField(x), 1).values
    y_a = spectral_derivative(GridField(y), 1).values
    return float(abs(np.pi * np.mean(x * y_a - y * x_a)))


def recover_radius(points) -> float:
    """Effective radius sqrt(area / pi) of the enclosed region."""
    return float(np.sqrt(enclosed_area(points) / np.pi))


def recover_perturbation(points, r0: float) -> float:
    """Largest radial excess max_k(|X_k| - r0) over the sample points.

    Measures about the origin, so the curve is expected to be centered
    there (catalog shapes are; evolved snapshots may need recentering by
    the centroid first).
    """
    x, y = _as_points(points)
    return float(np.max(np.hypot(x, y) - r0))


def centroid(points) -> tuple[float, float]:
    """Mean of the sample points; equals the curve centroid for
    equal-arc-length samples."""
    x, y = _as_points(points)
    return float(np.mean(x)), float(np.mean(y))
