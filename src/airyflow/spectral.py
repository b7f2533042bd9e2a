"""Real Fourier transforms, spectral calculus, and mode filters on uniform
2*pi-periodic grids.

Conventions
-----------
Grids have N nodes alpha_k = 2*pi*k/N with N a power of two.  Every field
is real, and its one spectral form is the half spectrum :func:`rfft`:
the N/2+1 coefficients of m = 0..N/2, with the 1/N factor in the forward
transform, so cos(m*alpha) has coefficient 0.5 at m.  The coefficients
of negative m are the conjugates and are never stored; power spectra are
the one output that lists them, with |f_hat_m|^2 mirrored to ascending
m = -N/2+1 ... N/2.  :func:`rfft` and :func:`irfft` are the package's
only transforms.

The derivative and the antiderivative zero the Nyquist mode: on a real
grid that mode carries no first-derivative information, and zeroing keeps
all outputs real.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath

from .errors import ValidationError

FILTERS = ("none", "dpr", "krasny")
KRASNY_THRESHOLD = 1e-13
#: trig_interpolate's Taylor terms: |m*h*u| <= pi/2, so the first dropped
#: term is at most (pi/2)^23/23! ~ 1e-18 of the coefficients' l1 norm
_TAYLOR_TERMS = 23
#: 2*pi as three doubles, the first two of 25 bits: an integer below 2^28 times either is exact
_TWO_PI_PARTS = (6.283185243606567, 6.357301884918343e-08, 2.4492935982947064e-16)


def _check_grid_size(n: int) -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 8 and (n & (n - 1)) == 0):
        raise ValidationError(f"grid size n must be a power of two >= 8, got {n}")


@lru_cache(maxsize=128)
def grid_nodes(n: int) -> np.ndarray:
    """Nodes alpha_k = 2*pi*k/N, k = 0..N-1, cached read-only per N."""
    _check_grid_size(n)
    nodes = 2.0 * np.pi * np.arange(n) / n
    nodes.setflags(write=False)
    return nodes


def symmetric_wavenumbers(n: int) -> np.ndarray:
    """Wavenumbers m = -N/2+1 ... N/2 in ascending order."""
    _check_grid_size(n)
    return np.arange(-(n // 2) + 1, n // 2 + 1)


def rfft(values: np.ndarray, out=None) -> np.ndarray:
    """Half spectra of real rows of even length N along the last axis, into
    ``out`` (a new array for None): bitwise ``numpy.fft.rfft(values,
    norm="forward")``, by the gufunc it wraps less its per-call work."""
    n = values.shape[-1]
    if out is None:
        out = np.empty((*values.shape[:-1], n // 2 + 1), dtype=np.complex128)
    return _pocketfft_umath.rfft_n_even(values, 1.0 / n, out=out)


def irfft(coeffs: np.ndarray, out=None) -> np.ndarray:
    """Real rows of N = 2(M-1) samples of M-coefficient half spectra, into
    ``out`` (a new array for None): bitwise ``numpy.fft.irfft(coeffs,
    N, norm="forward")``, as :func:`rfft`."""
    if out is None:
        out = np.empty((*coeffs.shape[:-1], 2 * (coeffs.shape[-1] - 1)))
    return _pocketfft_umath.irfft(coeffs, 1.0, out=out)


@lru_cache(maxsize=128)
def _derivative_symbol(n: int) -> np.ndarray:
    """i*m over m = 0..N/2, the Nyquist slot zeroed."""
    m = np.arange(n // 2 + 1, dtype=np.float64)
    m[-1] = 0.0
    sym = 1j * m
    sym.setflags(write=False)
    return sym


@lru_cache(maxsize=128)
def _antiderivative_symbol(n: int) -> np.ndarray:
    """1/(i*m) over m = 0..N/2, with the mean and Nyquist slots zeroed."""
    sym = np.zeros(n // 2 + 1, dtype=np.complex128)
    sym[1:-1] = 1.0 / (1j * np.arange(1, n // 2))
    sym.setflags(write=False)
    return sym


@lru_cache(maxsize=128)
def _dpr_profile(n: int) -> np.ndarray:
    """Smooth damping profile rho1(x) at x = m*h/pi = 2m/N over m = 0..N/2:
    1 up to x = 1/2, then exp(1 - 1/(16 (1-x)^4)).

    Complex, as the half spectra it multiplies are: the product is the one
    numpy forms by casting a real profile, less the cast buffer per call.
    """
    x = np.arange(n // 2 + 1) * 2.0 / n
    tail = x >= 0.5
    t = 1.0 - x[tail]
    with np.errstate(divide="ignore", over="ignore"):
        arg = 1.0 - 1.0 / (16.0 * t**4)
    profile = np.ones(n // 2 + 1, dtype=np.complex128)
    # exp underflows for arguments below ~-745; clamp so rho1(1) is exactly 0
    profile[tail] = np.where(arg > -745.0, np.exp(np.maximum(arg, -745.0)), 0.0)
    profile.setflags(write=False)
    return profile


def mode_filter(mode: str, n: int):
    """The mode filter of N-point complex half spectra, resolved once.

    None for "none"; otherwise ``apply(coeffs, out=None)``.  "krasny"
    zeroes the modes whose amplitude is below 1e-13 (rho2), and "dpr"
    multiplies mode m by rho1(m*h/pi).  ``apply`` writes its result into
    ``out`` (a new array for None), which may be ``coeffs``; ``coeffs`` is
    otherwise only read.  A non-finite coefficient stays non-finite.  The
    filter holds the rho1 profile or the Krasny |z| and mask buffers, so an
    ``apply`` into ``out`` allocates nothing, and one resolved filter serves
    one caller at a time.  ``mode`` is one of :data:`FILTERS`, as
    ``SchemeConfig`` checks; any other name raises KeyError.
    """
    if mode == "none":
        return None
    if mode == "dpr":
        profile = _dpr_profile(n)
        return lambda coeffs, out=None: np.multiply(coeffs, profile, out=out)
    if mode != "krasny":
        raise KeyError(mode)
    magnitude = np.empty(n // 2 + 1)
    small = np.empty(n // 2 + 1, dtype=bool)

    def apply(coeffs, out=None):
        np.less(np.abs(coeffs, out=magnitude), KRASNY_THRESHOLD, out=small)
        if out is None:
            out = coeffs.copy()
        elif out is not coeffs:
            np.copyto(out, coeffs)
        np.copyto(out, 0.0, where=small)
        return out

    return apply


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """First spectral derivative of real grid samples along the last axis;
    row by row for a stack of rows."""
    n = np.shape(values)[-1]
    _check_grid_size(n)
    return irfft(_derivative_symbol(n) * rfft(values))


def spectral_antiderivative(values: np.ndarray) -> np.ndarray:
    """Zero-mean antiderivative of real grid samples along the last axis, row
    by row for a stack of rows: divides mode m by i*m and drops the mean.

    The Nyquist mode is zeroed as in the derivative, so the
    derivative of the result recovers the input minus its mean (and minus
    any Nyquist content) to roundoff.
    """
    n = np.shape(values)[-1]
    _check_grid_size(n)
    return irfft(_antiderivative_symbol(n) * rfft(values))


def power_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """|f_hat_m|^2 of a half spectrum, mirrored to ascending m = -N/2+1 ... N/2;
    row by row for a stack of half spectra."""
    power = np.abs(coeffs) ** 2
    return np.concatenate([power[..., -2:0:-1], power], axis=-1)


def l2_norm(values) -> float:
    """Grid l2 norm sqrt(h * sum |f_k|^2), h = 2*pi/N."""
    v = np.asarray(values)
    return float(np.sqrt(2.0 * np.pi / v.size * np.sum(np.abs(v) ** 2)))


def trig_interpolate(values: np.ndarray, beta) -> tuple[np.ndarray, np.ndarray]:
    """The trigonometric interpolant of real samples and its derivative at
    points beta.

    ``values`` is one row of N samples or a stack (R, N) of rows; each of
    the pair has the same leading shape, with one entry per point, and
    each row of a stack is bitwise that row alone.  The interpolant is the
    symmetric one, with the Nyquist coefficient as cos(N*beta/2), summed as
    its Taylor series about the nearest node: beta = alpha_k + u*h with
    h = 2*pi/N and |u| <= 1/2, and term j is u^j T_j, T_j the j-th
    derivative over j! at node k, one :func:`irfft` of the spectrum times
    (i*m*h)^j/j!.  The derivative sums j u^(j-1) T_j / h off the same
    transforms.  :data:`_TAYLOR_TERMS` terms make both sums exact to
    roundoff, in O(R*N log N) time and O(R*N) memory.  The Nyquist slot
    keeps its symbol: the even terms sum to (-1)^k cos(pi*u) =
    cos(N*beta/2), and :func:`irfft` drops the odd ones.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    _check_grid_size(n)
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    h = 2.0 * np.pi / n
    nearest = np.rint(beta / h)
    # u in full for any beta: one rounded 2*pi would move each point by beta
    # times its rounding, which the Nyquist mode's phase scales by N/2
    hi, mid, lo = _TWO_PI_PARTS
    u = (beta - nearest * (hi / n) - nearest * (mid / n) - nearest * (lo / n)) / h
    k = nearest.astype(np.intp) % n
    symbol = 1j * h * np.arange(n // 2 + 1)
    term = rfft(values)
    out = values[..., k]  # term 0: the interpolant takes the samples at the nodes
    slope = np.zeros_like(out)
    power = np.ones_like(u)
    for j in range(1, _TAYLOR_TERMS):
        term *= symbol / j
        row = irfft(term)[..., k]
        slope += j * power * row
        power *= u
        row *= power
        out += row
    return out, slope / h
