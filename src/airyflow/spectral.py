"""Discrete Fourier transforms, spectral calculus, and mode filters on
uniform 2*pi-periodic grids.

Conventions
-----------
Grids have N nodes alpha_k = 2*pi*k/N with N a power of two.  The forward
transform carries the 1/N factor, so a pure mode cos(m*alpha) has
coefficients of 0.5 at +/-m.  Coefficients are stored internally in
FFT-natural order; the public accessor indexes by signed wavenumber
m = -N/2+1 ... N/2 (the Nyquist slot is labelled +N/2).  The time stepper
works on the half spectrum of a real field, ``rfft(f, norm="forward")``:
the leading N/2+1 of those coefficients, for m = 0..N/2.

Odd-order spectral operations (derivative orders 1 and 3, and the
antiderivative) zero the Nyquist mode: on a real grid that mode carries no
odd-derivative information, and zeroing keeps all outputs real.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonFiniteField, NonRealResult

FILTERS = ("none", "dpr", "krasny", "both")
KRASNY_THRESHOLD = 1e-13
_REAL_RESIDUE_LIMIT = 1e-9


def _check_grid_size(n: int) -> None:
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 8, got {n}")


def grid_nodes(n: int) -> np.ndarray:
    """Nodes alpha_k = 2*pi*k/N, k = 0..N-1."""
    _check_grid_size(n)
    return 2.0 * np.pi * np.arange(n) / n


@lru_cache(maxsize=128)
def wavenumbers(n: int) -> np.ndarray:
    """Signed wavenumbers in FFT-natural order, with the Nyquist slot at +N/2."""
    _check_grid_size(n)
    m = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
    m[n // 2] = n // 2
    m.setflags(write=False)
    return m


def symmetric_wavenumbers(n: int) -> np.ndarray:
    """Wavenumbers m = -N/2+1 ... N/2 in ascending order."""
    _check_grid_size(n)
    return np.arange(-(n // 2) + 1, n // 2 + 1)


@dataclass(frozen=True)
class GridField:
    """Real samples of a 2*pi-periodic function on a uniform N-point grid."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("GridField values must be one-dimensional")
        _check_grid_size(v.size)
        if not np.all(np.isfinite(v)):
            raise NonFiniteField("GridField values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def nodes(self) -> np.ndarray:
        return grid_nodes(self.n)


@dataclass(frozen=True)
class Spectrum:
    """Complex Fourier coefficients indexed by wavenumber m = -N/2+1 ... N/2.

    A spectrum of a real field is conjugate symmetric,
    coeff(-m) == conj(coeff(m)), with a real Nyquist coefficient; this is
    not enforced at construction but is checked by :func:`idft` when a
    real field is requested.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1:
            raise ValueError("Spectrum coeffs must be one-dimensional")
        _check_grid_size(c.size)
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return self.coeffs.size

    @property
    def wavenumbers(self) -> np.ndarray:
        return wavenumbers(self.n)

    def coeff(self, m):
        """Coefficient(s) for signed wavenumber(s) m in -N/2+1 ... N/2."""
        m = np.asarray(m)
        half = self.n // 2
        if np.any(m < -half + 1) or np.any(m > half):
            raise IndexError(f"wavenumber out of range -{half - 1}..{half}")
        return self.coeffs[m % self.n]


class _ResidueStats:
    """Largest imaginary residue discarded by idft since the last reset."""

    def __init__(self):
        self._lock = threading.Lock()
        self._max = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            if value > self._max:
                self._max = value

    @property
    def max(self) -> float:
        return self._max

    def reset(self) -> None:
        with self._lock:
            self._max = 0.0


imag_residue_stats = _ResidueStats()


def dft(field: GridField) -> Spectrum:
    """Forward transform, coefficients f_hat_m = (1/N) sum_k f_k e^{-im alpha_k}."""
    return Spectrum(np.fft.fft(field.values) / field.n)


def idft(spectrum: Spectrum) -> GridField:
    """Inverse transform f_k = sum_m f_hat_m e^{im alpha_k}, returned as a real field.

    Imaginary residue (from a not-quite conjugate-symmetric spectrum) is
    discarded and tracked in :data:`imag_residue_stats`; residue above
    1e-9 raises :class:`NonRealResult` since it signals an upstream
    symmetry violation rather than roundoff.
    """
    w = np.fft.ifft(spectrum.coeffs) * spectrum.n
    residue = float(np.max(np.abs(w.imag))) if spectrum.n else 0.0
    imag_residue_stats.observe(residue)
    if residue > _REAL_RESIDUE_LIMIT:
        raise NonRealResult(
            f"imaginary residue {residue:.3e} exceeds {_REAL_RESIDUE_LIMIT:.0e}"
        )
    return GridField(w.real)


@lru_cache(maxsize=128)
def _derivative_symbol(n: int, order: int) -> np.ndarray:
    """(i*m)**order with the Nyquist slot zeroed for odd orders.

    Built from integer powers of m (exact in floats) rather than complex
    exponentiation, which loses ~1e-12 through the exp/log path.
    """
    m = wavenumbers(n).astype(np.float64)
    if order % 2:
        m = m.copy()
        m[n // 2] = 0.0
    i_power = {0: 1.0, 1: 1j, 2: -1.0, 3: -1j}[order % 4]
    sym = i_power * m**order
    sym.setflags(write=False)
    return sym


@lru_cache(maxsize=128)
def _dpr_profile(n: int) -> np.ndarray:
    """Smooth damping profile rho1(m*h/pi) over the FFT-ordered modes."""
    x = wavenumbers(n).astype(np.float64) * 2.0 / n
    profile = _rho1_array(x)
    profile.setflags(write=False)
    return profile


def _rho1_array(x: np.ndarray) -> np.ndarray:
    ax = np.abs(np.asarray(x, dtype=np.float64))
    if np.any(ax > 1.0):
        raise DomainError("rho1 argument must lie in [-1, 1]")
    out = np.ones_like(ax)
    tail = ax >= 0.5
    t = 1.0 - ax[tail]
    with np.errstate(divide="ignore", over="ignore"):
        arg = 1.0 - 1.0 / (16.0 * t**4)
    # exp underflows for arguments below ~-745; clamp so rho1(+-1) is exactly 0
    vals = np.where(arg > -745.0, np.exp(np.maximum(arg, -745.0)), 0.0)
    out[tail] = vals
    return out


def dpr_rho1(x):
    """High-mode damping multiplier: 1 below half-Nyquist, smoothly to 0 at x = +-1.

    Accepts a scalar or array with entries in [-1, 1].
    """
    arr = _rho1_array(np.atleast_1d(x))
    return float(arr[0]) if np.isscalar(x) or np.ndim(x) == 0 else arr


def krasny_rho2(amplitude):
    """Hard cutoff: 0 for amplitudes below 1e-13, else 1."""
    arr = np.where(np.asarray(amplitude, dtype=np.float64) < KRASNY_THRESHOLD, 0.0, 1.0)
    return float(arr) if np.ndim(amplitude) == 0 else arr


def filter_modes(coeffs: np.ndarray, mode: str, n: int) -> np.ndarray:
    """Apply a mode filter to the Fourier coefficients of a real N-point field.

    ``coeffs`` holds the leading modes in FFT-natural order: all N of
    them, or the half spectrum m = 0..N/2 that ``rfft`` returns.
    "krasny" zeroes the modes whose amplitude is below 1e-13 (rho2),
    "dpr" multiplies mode m by rho1(m*h/pi), "both" does the first and
    then the second, and "none" returns the input unchanged.
    """
    if mode not in FILTERS:
        raise ValueError(f"filter mode must be one of {FILTERS}, got {mode!r}")
    if mode in ("krasny", "both"):
        coeffs = np.where(np.abs(coeffs) < KRASNY_THRESHOLD, 0.0, coeffs)
    if mode in ("dpr", "both"):
        coeffs = coeffs * _dpr_profile(n)[: coeffs.size]
    return coeffs


def _derivative_values(values: np.ndarray, order: int = 1, mode: str = "none") -> np.ndarray:
    """Derivative of real samples, the modes filtered first.

    Single code path for the filtered and unfiltered derivative so that
    mode "none" is bitwise identical to the plain spectral derivative.
    """
    n = values.size
    fhat = filter_modes(np.fft.fft(values) / n, mode, n)
    return (np.fft.ifft(_derivative_symbol(n, order) * fhat) * n).real


def spectral_derivative(field: GridField, order: int = 1) -> GridField:
    """Spectral derivative of the given order (1, 2, or 3)."""
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2, or 3, got {order}")
    return GridField(_derivative_values(field.values, order))


def filtered_derivative(field: GridField, mode: str = "none") -> GridField:
    """First derivative with DPR and/or Krasny filtering of the modes.

    Each mode is multiplied by i*m, by rho1(m*h/pi) when DPR filtering is
    on, and by rho2(|f_hat_m|) when Krasny filtering is on.  Mode "none"
    reduces exactly to the plain first derivative.
    """
    return GridField(_derivative_values(field.values, 1, mode))


def spectral_antiderivative(field: GridField) -> GridField:
    """Zero-mean antiderivative: divides mode m by i*m and drops the mean.

    The Nyquist mode is zeroed like in the odd-order derivatives, so the
    derivative of the result recovers the input minus its mean (and minus
    any Nyquist content) to roundoff.
    """
    n = field.n
    fhat = np.fft.fft(field.values) / n
    m = wavenumbers(n).astype(np.float64)
    denom = 1j * m
    denom[0] = 1.0  # placeholder; mean is dropped below
    out = fhat / denom
    out[0] = 0.0
    out[n // 2] = 0.0
    return GridField((np.fft.ifft(out) * n).real)


def power_spectrum(spectrum: Spectrum) -> np.ndarray:
    """|coeff(m)|^2 ordered by ascending m = -N/2+1 ... N/2."""
    return np.abs(spectrum.coeff(symmetric_wavenumbers(spectrum.n))) ** 2


def l2_norm(values) -> float:
    """Grid l2 norm sqrt(h * sum |f_k|^2), h = 2*pi/N."""
    v = np.asarray(values)
    return float(np.sqrt(2.0 * np.pi / v.size * np.sum(np.abs(v) ** 2)))


def trig_interpolate(values: np.ndarray, beta) -> np.ndarray:
    """Evaluate the trigonometric interpolant of real samples at points beta.

    Uses the symmetric interpolant: the Nyquist coefficient contributes
    cos(N*beta/2) so the result is real for real input; modes 1..N/2-1 are
    doubled.  With m = kB + j and B ~ sqrt(N/2), e^{im beta} = e^{ij beta} e^{ikB beta}:
    P points take a P x B and a P x K exp table and one matrix product.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    _check_grid_size(n)
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    half = n // 2
    fhat = np.fft.rfft(values, norm="forward")
    coeffs = 2.0 * fhat[:half]
    coeffs[0] = fhat[0]
    block = 1 << (half.bit_length() // 2)  # B; the K = N/2 / B block starts are kB
    inner = np.exp(1j * np.outer(beta, np.arange(block)))
    outer = np.exp(1j * np.outer(beta, np.arange(0, half, block)))
    out = np.einsum("pk,pk->p", outer, inner @ coeffs.reshape(-1, block).T).real
    return out + fhat[half].real * np.cos(half * beta)
