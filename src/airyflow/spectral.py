"""Real Fourier transforms, spectral calculus, and mode filters on uniform
2*pi-periodic grids.

Conventions
-----------
Grids have N nodes alpha_k = 2*pi*k/N with N a power of two.  Every field
is real, and its one spectral form is the half spectrum
``rfft(f, norm="forward")``: the N/2+1 coefficients of m = 0..N/2, with
the 1/N factor in the forward transform, so cos(m*alpha) has coefficient
0.5 at m.  The coefficients of negative m are the conjugates and are
never stored; power spectra are the one output that lists them, with
|f_hat_m|^2 mirrored to ascending m = -N/2+1 ... N/2.

Odd-order spectral operations (derivative orders 1 and 3, and the
antiderivative) zero the Nyquist mode: on a real grid that mode carries no
odd-derivative information, and zeroing keeps all outputs real.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ValidationError

FILTERS = ("none", "dpr", "krasny", "both")
KRASNY_THRESHOLD = 1e-13


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


@lru_cache(maxsize=128)
def _derivative_symbol(n: int, order: int) -> np.ndarray:
    """(i*m)**order over m = 0..N/2, the Nyquist slot zeroed for odd orders.

    Built from integer powers of m (exact in floats) rather than complex
    exponentiation, which loses ~1e-12 through the exp/log path.
    """
    m = np.arange(n // 2 + 1, dtype=np.float64)
    if order % 2:
        m[-1] = 0.0
    i_power = {0: 1.0, 1: 1j, 2: -1.0, 3: -1j}[order % 4]
    sym = i_power * m**order
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
def _dpr_profile(n: int, dtype=np.float64) -> np.ndarray:
    """Smooth damping profile rho1(m*h/pi) over m = 0..N/2, in ``dtype``.

    A complex spectrum takes the profile as complex: the product is the one
    numpy forms by casting the real profile, less the cast buffer per call.
    """
    profile = _rho1_array(np.arange(n // 2 + 1) * 2.0 / n).astype(dtype)
    profile.setflags(write=False)
    return profile


def _rho1_array(x: np.ndarray) -> np.ndarray:
    """rho1 over arguments in [-1, 1]: 1 up to |x| = 1/2, then exp(1 - 1/(16 (1-|x|)^4))."""
    ax = np.abs(np.asarray(x, dtype=np.float64))
    out = np.ones_like(ax)
    tail = ax >= 0.5
    t = 1.0 - ax[tail]
    with np.errstate(divide="ignore", over="ignore"):
        arg = 1.0 - 1.0 / (16.0 * t**4)
    # exp underflows for arguments below ~-745; clamp so rho1(+-1) is exactly 0
    vals = np.where(arg > -745.0, np.exp(np.maximum(arg, -745.0)), 0.0)
    out[tail] = vals
    return out


def mode_filter(mode: str, n: int, dtype=np.complex128):
    """The mode filter of N-point half spectra of ``dtype``, resolved once.

    None for "none"; otherwise ``apply(coeffs, out=None)``, which filters
    ``coeffs`` as :func:`filter_modes` does.  "dpr" holds the rho1 profile
    in the spectrum's dtype, "krasny" its |z| and mask buffers, and "both"
    all three, so an ``apply`` into ``out`` allocates nothing.  The buffers
    make one resolved filter serve one caller at a time.
    """
    if mode not in FILTERS:
        raise ValueError(f"filter mode must be one of {FILTERS}, got {mode!r}")
    if mode == "none":
        return None
    profile = None if mode == "krasny" else _dpr_profile(n, np.result_type(dtype, np.float64))
    if mode == "dpr":
        def apply(coeffs, out=None):
            return np.multiply(coeffs, profile, out=out)

        return apply
    magnitude = np.abs(np.zeros(n // 2 + 1, dtype=dtype))  # |z| in the dtype np.abs gives
    small = np.empty(n // 2 + 1, dtype=bool)

    def apply(coeffs, out=None):
        np.less(np.abs(coeffs, out=magnitude), KRASNY_THRESHOLD, out=small)
        if out is None:
            out = coeffs.copy()
        elif out is not coeffs:
            np.copyto(out, coeffs)
        np.copyto(out, 0.0, where=small)
        if profile is not None:
            out *= profile
        return out

    return apply


def filter_modes(coeffs: np.ndarray, mode: str, out=None) -> np.ndarray:
    """Apply a mode filter to the half spectrum of a real N-point field.

    "krasny" zeroes the modes whose amplitude is below 1e-13 (rho2),
    "dpr" multiplies mode m by rho1(m*h/pi), "both" does the first and
    then the second, and "none" returns ``coeffs`` itself.  The other
    filters write their result into ``out`` (a new array for None), which
    may be ``coeffs``; ``coeffs`` is otherwise only read.  A non-finite
    coefficient stays non-finite.  The filter is :func:`mode_filter`'s,
    resolved for this one call.
    """
    apply = mode_filter(mode, 2 * (coeffs.size - 1), coeffs.dtype)
    return coeffs if apply is None else apply(coeffs, out)


def spectral_derivative(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral derivative of the given order (1, 2, or 3) of real grid samples."""
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2, or 3, got {order}")
    n = np.size(values)
    _check_grid_size(n)
    fhat = np.fft.rfft(values, norm="forward")
    return np.fft.irfft(_derivative_symbol(n, order) * fhat, n, norm="forward")


def spectral_antiderivative(values: np.ndarray) -> np.ndarray:
    """Zero-mean antiderivative: divides mode m by i*m and drops the mean.

    The Nyquist mode is zeroed like in the odd-order derivatives, so the
    derivative of the result recovers the input minus its mean (and minus
    any Nyquist content) to roundoff.
    """
    n = np.size(values)
    _check_grid_size(n)
    fhat = np.fft.rfft(values, norm="forward")
    return np.fft.irfft(_antiderivative_symbol(n) * fhat, n, norm="forward")


def power_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """|f_hat_m|^2 of a half spectrum, mirrored to ascending m = -N/2+1 ... N/2;
    row by row for a stack of half spectra."""
    power = np.abs(coeffs) ** 2
    return np.concatenate([power[..., -2:0:-1], power], axis=-1)


def l2_norm(values) -> float:
    """Grid l2 norm sqrt(h * sum |f_k|^2), h = 2*pi/N."""
    v = np.asarray(values)
    return float(np.sqrt(2.0 * np.pi / v.size * np.sum(np.abs(v) ** 2)))


def trig_interpolate(values: np.ndarray, beta) -> np.ndarray:
    """Evaluate the trigonometric interpolant of real samples at points beta.

    ``values`` is one row of N samples or a stack (R, N) of rows; the
    result has the same leading shape, with one entry per point.  Uses the
    symmetric interpolant: the Nyquist coefficient contributes
    cos(N*beta/2) so the result is real for real input; modes 1..N/2-1 are
    doubled.  With m = kB + j and B ~ sqrt(N/2), e^{im beta} = e^{ij beta} e^{ikB beta}:
    P points take a P x B and a P x K phase table, built once for all rows,
    and one matrix product per row.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    _check_grid_size(n)
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    half = n // 2
    fhat = np.fft.rfft(values, norm="forward")
    coeffs = 2.0 * fhat[..., :half]
    coeffs[..., 0] = fhat[..., 0]
    block = 1 << (half.bit_length() // 2)  # B; the K = N/2 / B block starts are kB
    # e^{ij beta} and e^{ikB beta} side by side: phases into .imag, then cos and sin of them
    table = np.empty((beta.size, block + half // block), dtype=np.complex128)
    np.outer(beta, np.append(np.arange(block), np.arange(0, half, block)), out=table.imag)
    np.cos(table.imag, out=table.real)
    np.sin(table.imag, out=table.imag)
    inner, outer = table[:, :block], table[:, block:]
    out = np.array([np.einsum("pk,pk->p", outer, inner @ row.T).real
                    for row in coeffs.reshape(-1, half // block, block)])
    out += fhat[..., half].real.reshape(-1, 1) * np.cos(half * beta)
    return out.reshape(values.shape[:-1] + beta.shape)
