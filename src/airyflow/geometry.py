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
from typing import Callable, get_type_hints

import numpy as np

from . import spectral
from .errors import (
    InvalidParameter,
    NoConvergence,
    NonFiniteField,
    NotRegular,
    UnknownShape,
    WindingError,
)
from .spectral import (
    _antiderivative_symbol,
    _check_grid_size,
    grid_nodes,
    irfft,
    spectral_antiderivative,
    spectral_derivative,
)

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
        if not np.isfinite(phi).all():
            raise NonFiniteField("phi must be finite")
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        if np.shape(self.anchor) != (2,):
            raise ValueError(f"anchor must be an (x, y) pair, got {self.anchor!r}")
        if not all(map(math.isfinite, (self.length, self.time, *self.anchor))):
            raise NonFiniteField("length, time and anchor must be finite")
        if not self.length > 0.0:
            raise ValueError("curve length must be positive")

    @property
    def n(self) -> int:
        return self.phi.size


def _as_points(points) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    return pts[:, 0], pts[:, 1]


# ---------------------------------------------------------------------------
# shape catalog


def _ellipse(a: float = 1.0, b: float = 0.5):
    if a <= 0 or b <= 0:
        raise InvalidParameter(f"ellipse semi-axes must be positive, got a={a}, b={b}")
    return (lambda t: a * np.cos(t)), (lambda t: b * np.sin(t))


def _circle(r: float = 1.0):
    if r <= 0:
        raise InvalidParameter(f"circle radius must be positive, got r={r}")
    return _ellipse(r, r)


def _perturbed_circle(r0: float = 1.0, delta0: float = 0.1, m: int = 2):
    if r0 <= 0:
        raise InvalidParameter(f"base radius must be positive, got {r0}")
    if delta0 < 0 or r0 - delta0 <= 0:
        raise InvalidParameter("perturbation must satisfy 0 <= delta0 < r0, "
                               f"got delta0={delta0}, r0={r0}")
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


#: shape name -> its factory, whose signature states the shape's parameters, types and defaults
_CATALOG = {"circle": _circle, "ellipse": _ellipse, "perturbed_circle": _perturbed_circle,
            "pc3": lambda: _perturbed_circle(1.0, 0.4, 3), "cardioid": _cardioid}
#: shape name -> its parameters' types by name, read once off its factory's signature
_PARAMS = {shape: get_type_hints(factory) for shape, factory in _CATALOG.items()}

#: every shape parameter's type by name, read off the catalog
SHAPE_PARAMS = {name: kind for params in _PARAMS.values() for name, kind in params.items()}


def catalog_curve(shape: str, **params) -> tuple[Callable, Callable]:
    """The evaluator pair (x(beta), y(beta)) of an analytic catalog curve.

    A shape's parameters, their types and defaults are its factory's
    signature in ``_CATALOG`` (:data:`SHAPE_PARAMS` gathers them).  A
    parameter the shape does not take, a non-finite one or one too large
    for a float raises :class:`InvalidParameter` before the factory runs.
    All shapes are simple, counterclockwise, and 2*pi-periodic.
    """
    key = shape.lower()
    if key not in _CATALOG:
        raise UnknownShape(f"unknown shape {shape!r}; known: {sorted(_CATALOG)}")
    extra = set(params) - set(_PARAMS[key])
    if extra:
        raise InvalidParameter(f"shape {shape!r} does not take parameters {sorted(extra)}")
    for name, value in params.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            raise InvalidParameter(
                f"shape {shape!r} parameter {name} is too large for a float") from None
        if not finite:
            raise InvalidParameter(f"shape {shape!r} parameter {name} must be finite, got {value}")
    return _CATALOG[key](**params)


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
    xy = np.stack((fx(alpha), fy(alpha)))
    if not np.isfinite(xy).all():
        raise NotRegular("curve has non-finite samples")
    s_a = np.hypot(*spectral_derivative(xy))
    if not np.min(s_a) > 0.0:  # also fails for a non-finite s_alpha
        raise NotRegular("curve has a vanishing or non-finite tangent (s_alpha not > 0)")
    length = 2.0 * np.pi * float(np.mean(s_a))

    # s(beta) = (L/2pi) beta + periodic part, 0 at beta = 0; strictly increasing since s_a > 0.
    # Its slope s_beta is s_a less the Nyquist mode, which the antiderivative zeroes
    periodic = spectral_antiderivative(s_a - np.mean(s_a))
    periodic = periodic - periodic[0]
    targets = np.arange(n) * length / n
    # Newton starts from the cubic Hermite inverse of s: knots s(alpha_k), which
    # the FFT antiderivative gives exactly, and slopes 1/s_beta there
    knots = np.append(length / (2.0 * np.pi) * alpha + periodic, length)
    s_beta = length / (2.0 * np.pi) + spectral_derivative(periodic)
    slopes = 1.0 / np.append(s_beta, s_beta[0])
    k = np.searchsorted(knots, targets, side="right") - 1
    h = knots[k + 1] - knots[k]
    u = (targets - knots[k]) / h
    beta = (alpha[k] + u * u * (3.0 - 2.0 * u) * (2.0 * np.pi / n)
            + h * u * (1.0 - u) * ((1.0 - u) * slopes[k] - u * slopes[k + 1]))
    tol_abs = DEFAULT_RESAMPLE_TOL * length
    for _ in range(_NEWTON_MAX_ITER):
        value, derivative = spectral.trig_interpolate(periodic, beta)
        resid = length / (2.0 * np.pi) * beta + value - targets
        # update before the convergence test: the final step polishes the
        # just-in-tolerance residual down to the interpolation floor
        beta = beta - resid / (length / (2.0 * np.pi) + derivative)
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
    x_a, y_a = spectral_derivative(np.stack((x, y)))
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


def reconstruct_curve(anchor, tangent_hat: np.ndarray) -> np.ndarray:
    """Curve points (S, N, 2) of a block of S curves, each starting at the
    (x, y) ``anchor``.

    ``tangent_hat`` holds the half spectra (2, S, N/2+1) of the tangent
    rows (x_alpha, y_alpha), by :func:`spectral.rfft`.  The antiderivative
    drops the tangent's mean, so each reconstructed polygon is exactly
    periodic whether or not the curve closes: the closure defect (that
    mean) is measured by :func:`airyflow.diagnostics.observe`, and the run
    decides whether it is too large.
    """
    n = 2 * (tangent_hat.shape[-1] - 1)
    curve = irfft(tangent_hat * _antiderivative_symbol(n))
    curve -= curve[:, :, :1].copy()  # a copy: numpy's own for an overlap costs more
    curve += np.reshape(anchor, (2, 1, 1))
    return curve.transpose(1, 2, 0)
