"""Closed-curve geometry: the shape catalog, equal-arc-length resampling,
and tangent-angle extraction and reconstruction.

A curve is represented either parametrically, by the evaluator pair
(x(beta), y(beta)) of a catalog shape, or by its tangent angle
theta(alpha) = alpha + phi(alpha) together with its total length L.
Under the equal-arc-length parametrization s(alpha) = alpha*L/(2*pi), so
curvature is k = theta_s = (2*pi/L)(1 + phi_alpha), which
:func:`airyflow.diagnostics.observe` computes with all else a run reads.

All internal curves are counterclockwise; clockwise input is rejected
rather than silently flipped, since normal/curvature sign conventions
depend on the direction of traversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import spectral
from .errors import (
    ClosureViolation,
    InvalidParameter,
    NoConvergence,
    NonFiniteField,
    NotRegular,
    UnknownShape,
    WindingError,
)
from .spectral import _check_grid_size, grid_nodes, spectral_antiderivative, spectral_derivative

DEFAULT_CLOSURE_TOL = 1e-8
DEFAULT_RESAMPLE_TOL = 1e-12
_NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class ThetaLState:
    """Tangent-angle representation of a closed curve at one instant.

    ``phi`` is the periodic deviation theta(alpha) - alpha at the N grid
    nodes, kept as a read-only float64 copy: one-dimensional, N a power
    of two >= 8, and finite.  ``length`` is the (flow-invariant) total arc
    length; ``anchor`` is the (x, y) curve point at alpha = 0, carried so the
    curve can be reconstructed.  ``length``, ``time`` and ``anchor`` are
    finite too: nan or inf there would make every observer read nan.
    """

    phi: np.ndarray
    length: float
    time: float = 0.0
    anchor: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        phi = np.array(self.phi, dtype=np.float64)
        if phi.ndim != 1:
            raise ValueError("phi must be one-dimensional")
        _check_grid_size(phi.size)
        if not np.all(np.isfinite(phi)):
            raise NonFiniteField("phi must be finite")
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        if not self.length > 0.0:
            raise ValueError("curve length must be positive")
        if np.shape(self.anchor) != (2,):
            raise ValueError(f"anchor must be an (x, y) pair, got {self.anchor!r}")
        if not all(map(math.isfinite, (self.length, self.time, *self.anchor))):
            raise NonFiniteField("length, time and anchor must be finite")

    @property
    def n(self) -> int:
        return self.phi.size

    def theta(self) -> np.ndarray:
        """Unwrapped tangent angle theta = alpha + phi at the nodes."""
        return grid_nodes(self.n) + self.phi


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


def catalog_curve(shape: str, **params) -> tuple[Callable, Callable]:
    """The evaluator pair (x(beta), y(beta)) of an analytic catalog curve.

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
    return factory(**params)


# ---------------------------------------------------------------------------
# resampling and the theta-L representation


def resample_equal_arclength(curve: tuple[Callable, Callable],
                             n: int) -> tuple[np.ndarray, float]:
    """Resample a regular closed curve at n points uniform in arc length.

    ``curve`` is the evaluator pair (x(beta), y(beta)) of
    :func:`catalog_curve`, exact at arbitrary parameters.

    The cumulative arc length is built from the spectral antiderivative of
    s_alpha and inverted by Newton iteration on its trigonometric
    interpolant, so the construction is spectrally accurate end to end.
    Returns the (n, 2) points and the total length L.  Newton stops once
    the arc-length residual is below ``DEFAULT_RESAMPLE_TOL`` times L.
    """
    fx, fy = curve
    alpha = grid_nodes(n)
    x, y = fx(alpha), fy(alpha)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NotRegular("curve has non-finite samples")
    x_a = spectral_derivative(x, 1)
    y_a = spectral_derivative(y, 1)
    s_a = np.hypot(x_a, y_a)
    if not np.min(s_a) > 0.0:  # also fails for a non-finite s_alpha
        raise NotRegular("curve has a vanishing or non-finite tangent (s_alpha not > 0)")
    length = 2.0 * np.pi * float(np.mean(s_a))

    # s(beta) = (L/2pi) beta + periodic part, 0 at beta = 0; strictly increasing since s_a > 0
    periodic = spectral_antiderivative(s_a - np.mean(s_a))
    periodic = periodic - periodic[0]
    targets = np.arange(n) * length / n
    # Newton starts from s at the nodes, exact there, inverted by linear interpolation
    at_nodes = length / (2.0 * np.pi) * alpha + periodic
    beta = np.interp(targets, np.append(at_nodes, length), np.append(alpha, 2.0 * np.pi))
    tol_abs = DEFAULT_RESAMPLE_TOL * length
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
    return np.column_stack([fx(beta), fy(beta)]), length


def _wrap_to_pi(angles: np.ndarray) -> np.ndarray:
    return (angles + np.pi) % (2.0 * np.pi) - np.pi


def extract_theta_l(points, length: float) -> ThetaLState:
    """Tangent-angle state from equal-arc-length samples of a closed curve.

    theta is computed from spectral derivatives via atan2 and unwrapped so
    consecutive increments lie in (-pi, pi); the represented curve must
    turn by exactly +2*pi per loop (counterclockwise, simple).
    """
    x, y = _as_points(points)
    n = x.size
    x_a = spectral_derivative(x, 1)
    y_a = spectral_derivative(y, 1)
    theta_raw = np.arctan2(y_a, x_a)
    steps = _wrap_to_pi(np.diff(theta_raw, append=theta_raw[:1]))
    turning = float(np.sum(steps))
    if abs(turning - 2.0 * np.pi) > 1e-6:
        raise WindingError(
            f"total turning {turning:.6f} is not +2*pi; curve must be "
            "simple and counterclockwise"
        )
    theta = theta_raw[0] + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    return ThetaLState(
        phi=theta - grid_nodes(n),
        length=float(length),
        anchor=(float(x[0]), float(y[0])),
    )


def curve_tangent(state: ThetaLState) -> np.ndarray:
    """Tangent z_alpha = (L/2*pi) e^{i theta} of z = x + iy at the nodes."""
    return state.length / (2.0 * np.pi) * np.exp(1j * state.theta())


@lru_cache(maxsize=64)
def _complex_antiderivative_symbol(n: int) -> np.ndarray:
    """1/(i*m) in ``np.fft.fft`` order, with the mean and Nyquist slots zeroed."""
    m = np.fft.fftfreq(n, 1.0 / n)
    sym = np.zeros(n, dtype=np.complex128)
    keep = (m != 0) & (np.abs(m) != n // 2)
    sym[keep] = 1.0 / (1j * m[keep])
    sym.setflags(write=False)
    return sym


def reconstruct_curve(state: ThetaLState, closure_tol: float = DEFAULT_CLOSURE_TOL,
                      tangent: Optional[np.ndarray] = None) -> np.ndarray:
    """Curve points from a tangent-angle state, anchored at state.anchor.

    Integrates the complex tangent z_alpha = (L/2*pi) e^{i theta}
    (:func:`curve_tangent`, or ``tangent`` when the caller already has
    it) by one complex FFT antiderivative: z = x + iy is the one complex
    field of the package.  The tangent must have (near-)zero mean for the
    curve to close; the mean below tolerance is dropped, which makes the
    reconstructed polygon exactly periodic.
    """
    z_a = curve_tangent(state) if tangent is None else tangent
    mean = complex(np.mean(z_a))
    if abs(mean.real) > closure_tol or abs(mean.imag) > closure_tol:
        raise ClosureViolation(mean.real, mean.imag, closure_tol, state.time)
    z = np.fft.ifft(np.fft.fft(z_a) * _complex_antiderivative_symbol(state.n))
    z = complex(*state.anchor) + (z - z[0])
    return np.column_stack([z.real, z.imag])
