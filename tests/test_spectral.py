import numpy as np
import pytest
from hypothesis import given, strategies as st

from airyflow import spectral
from airyflow.spectral import (
    _dpr_profile,
    _rho1_array,
    filter_modes,
    grid_nodes,
    l2_norm,
    mode_filter,
    power_spectrum,
    spectral_antiderivative,
    spectral_derivative,
    symmetric_wavenumbers,
    trig_interpolate,
)

from conftest import band_limited_field


def half_spectrum(values):
    """The package's one spectral form: rfft with the 1/N in the forward transform."""
    return np.fft.rfft(values, norm="forward")


def fft_wavenumbers(n):
    """Signed wavenumbers in np.fft.fft order, the Nyquist slot labelled +N/2."""
    m = np.fft.fftfreq(n, 1.0 / n)
    m[n // 2] = n // 2
    return m


def filtered_derivative(field, mode):
    """First derivative of the filtered modes, as schemes.nonlinear_term takes it."""
    n = field.size
    fhat = filter_modes(half_spectrum(field), mode)
    d_hat = spectral._derivative_symbol(n, 1) * fhat
    return np.fft.irfft(d_hat, n, norm="forward")


class TestTransforms:
    """The half-spectrum convention every transform in the package uses."""

    def test_constant_field(self):
        s = half_spectrum(np.ones(16))
        assert s[0] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(s[1:])) < 1e-15

    def test_single_cosine_mode(self):
        s = half_spectrum(np.cos(2 * grid_nodes(16)))
        assert s.size == 16 // 2 + 1
        assert s[2] == pytest.approx(0.5, abs=1e-15)
        assert np.max(np.abs(np.delete(s, 2))) < 1e-15

    def test_idft_constant(self):
        coeffs = np.zeros(9, dtype=complex)
        coeffs[0] = 3.0
        assert np.allclose(np.fft.irfft(coeffs, 16, norm="forward"), 3.0, atol=1e-14)

    def test_idft_cosine(self):
        coeffs = np.zeros(17, dtype=complex)
        coeffs[1] = 0.5
        values = np.fft.irfft(coeffs, 32, norm="forward")
        assert np.max(np.abs(values - np.cos(grid_nodes(32)))) < 1e-14  # +-1 both carry 0.5


class TestDerivatives:
    def test_sine_derivative_exact(self):
        alpha = grid_nodes(32)
        d = spectral_derivative(np.sin(alpha), 1)
        assert np.max(np.abs(d - np.cos(alpha))) <= 1e-13

    def test_constant_derivative_zero(self):
        for order in (1, 2, 3):
            d = spectral_derivative(np.full(16, 2.5), order)
            assert np.max(np.abs(d)) < 1e-13

    def test_third_derivative_of_sin3(self):
        alpha = grid_nodes(64)
        d = spectral_derivative(np.sin(3 * alpha), 3)
        # (i*3)^3 mode mapping is exact; the pointwise bound is set by the
        # transform noise floor amplified by m^3 (~3e-11 at N=64)
        assert half_spectrum(d)[3] == pytest.approx(-13.5, abs=1e-13)
        assert np.max(np.abs(d - (-27.0) * np.cos(3 * alpha))) <= 4e-11

    def test_order_validation(self):
        with pytest.raises(ValueError):
            spectral_derivative(np.zeros(16), 4)

    def test_product_rule_on_band_limited(self, rng):
        # total band 5 + 7 < N/2: the product is exactly representable
        alpha = grid_nodes(64)
        f = band_limited_field(64, 5, rng)
        g = band_limited_field(64, 7, rng)
        df = spectral_derivative(f, 1)
        dg = spectral_derivative(g, 1)
        dfg = spectral_derivative(f * g, 1)
        assert np.max(np.abs(dfg - (df * g + f * dg))) <= 1e-11

    def test_antiderivative_of_cosine(self):
        alpha = grid_nodes(32)
        a = spectral_antiderivative(np.cos(alpha))
        assert np.max(np.abs(a - np.sin(alpha))) < 1e-13

    def test_antiderivative_of_constant_is_zero(self):
        a = spectral_antiderivative(np.full(16, 4.0))
        assert np.max(np.abs(a)) < 1e-14

    def test_derivative_then_antiderivative_identity(self, rng):
        f = band_limited_field(64, 20, rng)
        f -= f.mean()
        d = spectral_derivative(f, 1)
        back = spectral_antiderivative(d)
        assert np.max(np.abs(back - f)) <= 1e-12

    def test_antiderivative_then_derivative_removes_mean(self, rng):
        f = band_limited_field(64, 20, rng) + 1.7
        a = spectral_antiderivative(f)
        d = spectral_derivative(a, 1)
        assert np.max(np.abs(d - (f - f.mean()))) <= 1e-12


class TestDprRho1:
    """rho1(m h/pi) as filter_modes applies it: ``_dpr_profile(n)`` over
    m = 0..N/2, so N = 8 samples x = 0, 1/4, 1/2, 3/4, 1.  Arguments off
    every grid go to ``_rho1_array``, the formula the profile samples."""

    def test_flat_band(self):
        assert _dpr_profile(8)[1] == 1.0
        assert _dpr_profile(8)[0] == 1.0

    def test_endpoints_exactly_zero(self):
        for n in (8, 64, 512):
            assert _dpr_profile(n)[-1] == 0.0
        assert _rho1_array(np.array([-1.0]))[0] == 0.0

    def test_third_branch_value(self):
        assert _dpr_profile(8)[3] == pytest.approx(np.exp(-15.0), rel=1e-12)

    def test_continuous_at_half(self):
        assert _dpr_profile(8)[2] == 1.0
        assert _rho1_array(np.array([0.5 + 1e-12]))[0] == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_even_and_bounded(self, x):
        v, mirrored = _rho1_array(np.array([x, -x]))
        assert 0.0 <= v <= 1.0
        assert v == mirrored

    def test_nonincreasing_on_tail(self):
        vals = _dpr_profile(512)[128:]  # x = 0.5 ... 1 in steps of 1/256
        assert np.all(np.diff(vals) <= 1e-16)


class TestKrasnyRho2:
    """rho2 as filter_modes applies it to a half spectrum (N = 8, 5 modes)."""

    def test_threshold(self):
        out = filter_modes(np.array([1e-14, 1e-12, 0.0, 0.5, 1.0]), "krasny")
        assert out[0] == 0.0
        assert out[1] == 1e-12
        assert out[2] == 0.0

    @given(st.lists(st.one_of(st.floats(min_value=0, max_value=1.0),
                              st.floats(min_value=0, max_value=1e-12)),
                    min_size=5, max_size=5),
           st.floats(min_value=-np.pi, max_value=np.pi))
    def test_binary(self, amplitudes, phase):
        # each mode is zeroed (amplitude below 1e-13) or passed bitwise
        coeffs = np.array(amplitudes) * np.exp(1j * phase)
        out = filter_modes(coeffs, "krasny")
        below = np.abs(coeffs) < 1e-13
        assert np.all(out[below] == 0.0)
        assert np.array_equal(out[~below], coeffs[~below])


class TestFilterInPlace:
    """filter_modes into ``out``: the input left alone, or overwritten with
    exactly the out-of-place result."""

    @staticmethod
    def coeffs():
        # one coefficient exactly at the threshold (kept), one just below
        # (zeroed), a nan and an inf (kept: the guard must see them), and
        # signed zeros
        rng = np.random.default_rng(5)
        c = 1e-3 * (rng.normal(size=33) + 1j * rng.normal(size=33))
        c[[3, 4, 5, 6, 7]] = [spectral.KRASNY_THRESHOLD, np.nextafter(spectral.KRASNY_THRESHOLD, 0),
                              complex(np.nan, 0.0), complex(-np.inf, 1.0), complex(-0.0, -0.0)]
        c[8:12] *= 1e-12
        return c

    @pytest.mark.parametrize("mode", spectral.FILTERS)
    def test_input_unchanged(self, mode):
        c = self.coeffs()
        kept = c.copy()
        with np.errstate(invalid="ignore"):  # dpr: inf times the zero Nyquist weight
            out = filter_modes(c, mode)
        assert np.array_equal(c, kept, equal_nan=True)
        assert (out is c) == (mode == "none")

    @pytest.mark.parametrize("mode", spectral.FILTERS)
    def test_in_place_and_into_out_bitwise_equal(self, mode):
        c, other = self.coeffs(), np.full(33, 7.0 + 0j)
        with np.errstate(invalid="ignore"):  # dpr: inf times the zero Nyquist weight
            expected = filter_modes(self.coeffs(), mode)
            assert filter_modes(c, mode, c) is c
            into = filter_modes(self.coeffs(), mode, other)
        assert (into is other) == (mode != "none")  # "none" passes its input through
        for got in (c, into):
            # the same bits, signed zeros and nans included
            assert got.tobytes() == expected.tobytes()
        assert np.isnan(c[5]) and c[3] == spectral.KRASNY_THRESHOLD
        if mode in ("krasny", "both"):
            assert c[4] == 0.0 and np.all(c[8:12] == 0.0)

    @pytest.mark.parametrize("mode", spectral.FILTERS)
    def test_resolved_filter_bitwise_equal(self, mode):
        # mode_filter's apply, its buffers reused call after call, in place,
        # into out and into a new array
        apply = mode_filter(mode, 64)
        if mode == "none":
            assert apply is None
            return
        with np.errstate(invalid="ignore"):  # dpr: inf times the zero Nyquist weight
            expected = filter_modes(self.coeffs(), mode)
            for _ in range(2):
                c, other = self.coeffs(), np.full(33, 7.0 + 0j)
                assert apply(c, c) is c and apply(self.coeffs(), other) is other
                fresh = apply(self.coeffs())
                for got in (c, other, fresh):
                    assert got.tobytes() == expected.tobytes()

    def test_krasny_matches_where(self):
        # the zeroing rule as np.where states it
        c = self.coeffs()
        expected = np.where(np.abs(c) < spectral.KRASNY_THRESHOLD, 0.0, c)
        assert filter_modes(c, "krasny").tobytes() == expected.tobytes()


class TestFilteredDerivative:
    def test_none_is_bitwise_plain_derivative(self, rng):
        f = rng.standard_normal(64)
        a = filtered_derivative(f, "none")
        b = spectral_derivative(f, 1)
        assert np.array_equal(a, b)

    def test_dpr_passes_low_modes(self):
        alpha = grid_nodes(64)
        d = filtered_derivative(np.sin(alpha), "dpr")
        assert np.max(np.abs(d - np.cos(alpha))) <= 1e-13

    def test_dpr_damps_high_mode(self):
        # mode 29 of 64 sits at x = 2*29/64, deep in the damped band where
        # rho1 underflows to exactly 0
        n, m = 64, 29
        alpha = grid_nodes(n)
        assert _dpr_profile(n)[m] == 0.0
        d = filtered_derivative(np.cos(m * alpha), "dpr")
        assert abs(half_spectrum(d)[m]) < 1e-25  # mode killed; transform noise only
        assert np.max(np.abs(d)) < 1e-12  # residue of other modes only

    def test_krasny_zeroes_tiny_modes(self):
        alpha = grid_nodes(32)
        f = np.sin(alpha) + 1e-14 * np.sin(5 * alpha)
        d = filtered_derivative(f, "krasny")
        assert np.max(np.abs(d - np.cos(alpha))) < 1e-13

    def test_both_on_all_tiny_field_returns_zero(self):
        f = 1e-14 * np.sin(3 * grid_nodes(32))
        d = filtered_derivative(f, "both")
        assert np.all(d == 0.0)


class TestPowerSpectrum:
    def test_single_mode(self):
        power = power_spectrum(half_spectrum(np.cos(3 * grid_nodes(32))))
        m = symmetric_wavenumbers(32)
        assert power[m == 3] == pytest.approx(0.25, abs=1e-15)
        assert power[m == -3] == pytest.approx(0.25, abs=1e-15)
        assert np.sum(power) == pytest.approx(0.5, abs=1e-14)

    def test_zero_spectrum(self):
        power = power_spectrum(np.zeros(9, dtype=complex))
        assert power.size == 16 and np.all(power == 0.0)

    def test_parseval(self, rng):
        values = rng.standard_normal(64)
        total = np.sum(power_spectrum(half_spectrum(values)))
        assert total == pytest.approx(l2_norm(values) ** 2 / (2 * np.pi), rel=1e-12)


class TestInterpolation:
    def test_matches_nodes(self, rng):
        f = band_limited_field(32, 10, rng)
        assert np.max(np.abs(trig_interpolate(f, grid_nodes(32)) - f)) < 1e-12

    def test_band_limited_exact_off_grid(self, rng):
        alpha = np.array([0.3, 1.234, 5.9])
        f = band_limited_field(32, 6, rng)
        fhat = np.fft.fft(f) / 32  # reconstruct analytically
        m = fft_wavenumbers(32)
        exact = np.array([np.sum(fhat * np.exp(1j * m * a)).real for a in alpha])
        assert np.max(np.abs(trig_interpolate(f, alpha) - exact)) < 1e-12

    @pytest.mark.parametrize("n", [512, 4096])
    def test_matches_dense_reference(self, n, rng):
        # the sum over the whole spectrum, one exp per point and mode, with
        # the Nyquist mode as cos(N*beta/2)
        f = rng.normal(size=n)
        beta = rng.uniform(0.0, 2 * np.pi, 200)
        fhat = np.fft.fft(f) / n
        m = fft_wavenumbers(n)
        interior = m != n // 2
        dense = (np.exp(1j * np.outer(beta, m[interior])) @ fhat[interior]).real
        dense += fhat[n // 2].real * np.cos(n // 2 * beta)
        assert np.max(np.abs(trig_interpolate(f, beta) - dense)) <= 1e-12 * np.max(np.abs(f))

    @pytest.mark.parametrize("n", [8, 16, 512, 4096])
    def test_stack_matches_one_call_per_row(self, n, rng):
        rows = rng.normal(size=(3, n))
        beta = rng.uniform(0.0, 2 * np.pi, n)
        stacked = trig_interpolate(rows, beta)
        assert stacked.shape == (3, n)
        for row, got in zip(rows, stacked):
            assert np.array_equal(got, trig_interpolate(row, beta))

    @pytest.mark.parametrize("n", [8, 16, 4096])
    def test_band_limited_exact_across_block_splits(self, n, rng):
        # N/2 = 4 splits modes into 2 x 2 blocks, N/2 = 8 and 2048 into unequal ones
        alpha = np.array([0.3, 1.234, 5.9])
        f = band_limited_field(n, n // 2 - 1, rng, scale=1.0 / np.sqrt(n))
        fhat = np.fft.fft(f) / n
        m = fft_wavenumbers(n)
        exact = np.array([np.sum(fhat * np.exp(1j * m * a)).real for a in alpha])
        assert np.max(np.abs(trig_interpolate(f, alpha) - exact)) < 1e-12
