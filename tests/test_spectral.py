import numpy as np
import pytest
from hypothesis import given, strategies as st

from airyflow import spectral
from airyflow.errors import DomainError, NonFiniteField, NonRealResult
from airyflow.spectral import (
    GridField,
    Spectrum,
    dft,
    dpr_rho1,
    filtered_derivative,
    grid_nodes,
    idft,
    krasny_rho2,
    l2_norm,
    power_spectrum,
    spectral_antiderivative,
    spectral_derivative,
    symmetric_wavenumbers,
    trig_interpolate,
)

from conftest import band_limited_field


class TestGridField:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridField(np.zeros(24))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            GridField(np.zeros(4))

    def test_rejects_nan(self):
        values = np.zeros(16)
        values[3] = np.nan
        with pytest.raises(NonFiniteField):
            GridField(values)

    def test_values_are_immutable(self):
        f = GridField(np.zeros(16))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestTransforms:
    def test_constant_field(self):
        s = dft(GridField(np.ones(16)))
        assert s.coeff(0) == pytest.approx(1.0, abs=1e-15)
        others = np.delete(s.coeffs, 0)
        assert np.max(np.abs(others)) < 1e-15

    def test_single_cosine_mode(self):
        s = dft(GridField(np.cos(2 * grid_nodes(16))))
        assert s.coeff(2) == pytest.approx(0.5, abs=1e-15)
        assert s.coeff(-2) == pytest.approx(0.5, abs=1e-15)
        mask = np.ones(16, dtype=bool)
        mask[[2, 14]] = False
        assert np.max(np.abs(s.coeffs[mask])) < 1e-15

    def test_round_trip_random(self, rng):
        values = rng.standard_normal(64)
        assert np.max(np.abs(idft(dft(GridField(values))).values - values)) <= 1e-13

    def test_idft_constant(self):
        coeffs = np.zeros(16, dtype=complex)
        coeffs[0] = 3.0
        assert np.allclose(idft(Spectrum(coeffs)).values, 3.0, atol=1e-14)

    def test_idft_cosine(self):
        coeffs = np.zeros(32, dtype=complex)
        coeffs[1] = coeffs[-1] = 0.5
        assert np.max(np.abs(idft(Spectrum(coeffs)).values - np.cos(grid_nodes(32)))) < 1e-14

    def test_spectrum_round_trip(self, rng):
        values = rng.standard_normal(32)
        s = dft(GridField(values))
        again = dft(idft(s))
        assert np.max(np.abs(again.coeffs - s.coeffs)) <= 1e-13

    def test_idft_rejects_asymmetric_spectrum(self):
        coeffs = np.zeros(16, dtype=complex)
        coeffs[1] = 1.0  # no conjugate partner at -1
        with pytest.raises(NonRealResult):
            idft(Spectrum(coeffs))

    def test_residue_statistic_updates(self, rng):
        spectral.imag_residue_stats.reset()
        idft(dft(GridField(rng.standard_normal(32))))
        assert 0.0 <= spectral.imag_residue_stats.max < 1e-12

    def test_coeff_indexing_out_of_range(self):
        s = dft(GridField(np.ones(16)))
        with pytest.raises(IndexError):
            s.coeff(9)

    def test_linearity(self, rng):
        a = rng.standard_normal(32)
        b = rng.standard_normal(32)
        lhs = dft(GridField(2.0 * a + 3.0 * b)).coeffs
        rhs = 2.0 * dft(GridField(a)).coeffs + 3.0 * dft(GridField(b)).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestDerivatives:
    def test_sine_derivative_exact(self):
        alpha = grid_nodes(32)
        d = spectral_derivative(GridField(np.sin(alpha)), 1)
        assert np.max(np.abs(d.values - np.cos(alpha))) <= 1e-13

    def test_constant_derivative_zero(self):
        for order in (1, 2, 3):
            d = spectral_derivative(GridField(np.full(16, 2.5)), order)
            assert np.max(np.abs(d.values)) < 1e-13

    def test_third_derivative_of_sin3(self):
        alpha = grid_nodes(64)
        d = spectral_derivative(GridField(np.sin(3 * alpha)), 3)
        # (i*3)^3 mode mapping is exact; the pointwise bound is set by the
        # transform noise floor amplified by m^3 (~3e-11 at N=64)
        assert dft(d).coeff(3) == pytest.approx(-13.5, abs=1e-13)
        assert np.max(np.abs(d.values - (-27.0) * np.cos(3 * alpha))) <= 4e-11

    def test_order_validation(self):
        with pytest.raises(ValueError):
            spectral_derivative(GridField(np.zeros(16)), 4)

    def test_product_rule_on_band_limited(self, rng):
        # total band 5 + 7 < N/2: the product is exactly representable
        alpha = grid_nodes(64)
        f = band_limited_field(64, 5, rng)
        g = band_limited_field(64, 7, rng)
        df = spectral_derivative(GridField(f), 1).values
        dg = spectral_derivative(GridField(g), 1).values
        dfg = spectral_derivative(GridField(f * g), 1).values
        assert np.max(np.abs(dfg - (df * g + f * dg))) <= 1e-11

    def test_antiderivative_of_cosine(self):
        alpha = grid_nodes(32)
        a = spectral_antiderivative(GridField(np.cos(alpha)))
        assert np.max(np.abs(a.values - np.sin(alpha))) < 1e-13

    def test_antiderivative_of_constant_is_zero(self):
        a = spectral_antiderivative(GridField(np.full(16, 4.0)))
        assert np.max(np.abs(a.values)) < 1e-14

    def test_derivative_then_antiderivative_identity(self, rng):
        f = band_limited_field(64, 20, rng)
        f -= f.mean()
        d = spectral_derivative(GridField(f), 1)
        back = spectral_antiderivative(d)
        assert np.max(np.abs(back.values - f)) <= 1e-12

    def test_antiderivative_then_derivative_removes_mean(self, rng):
        f = band_limited_field(64, 20, rng) + 1.7
        a = spectral_antiderivative(GridField(f))
        d = spectral_derivative(a, 1)
        assert np.max(np.abs(d.values - (f - f.mean()))) <= 1e-12


class TestDprRho1:
    def test_flat_band(self):
        assert dpr_rho1(0.25) == 1.0
        assert dpr_rho1(0.0) == 1.0

    def test_endpoints_exactly_zero(self):
        assert dpr_rho1(1.0) == 0.0
        assert dpr_rho1(-1.0) == 0.0

    def test_third_branch_value(self):
        assert dpr_rho1(0.75) == pytest.approx(np.exp(-15.0), rel=1e-12)

    def test_continuous_at_half(self):
        assert dpr_rho1(0.5) == 1.0
        assert dpr_rho1(0.5 + 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            dpr_rho1(1.5)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_even_and_bounded(self, x):
        v = dpr_rho1(x)
        assert 0.0 <= v <= 1.0
        assert v == dpr_rho1(-x)

    def test_nonincreasing_on_tail(self):
        xs = np.linspace(0.5, 1.0, 201)
        vals = dpr_rho1(xs)
        assert np.all(np.diff(vals) <= 1e-16)


class TestKrasnyRho2:
    def test_threshold(self):
        assert krasny_rho2(1e-14) == 0.0
        assert krasny_rho2(1e-12) == 1.0
        assert krasny_rho2(0.0) == 0.0

    @given(st.floats(min_value=0, max_value=1.0, allow_nan=False))
    def test_binary(self, amplitude):
        assert krasny_rho2(amplitude) in (0.0, 1.0)


class TestFilteredDerivative:
    def test_none_is_bitwise_plain_derivative(self, rng):
        f = GridField(rng.standard_normal(64))
        a = filtered_derivative(f, "none").values
        b = spectral_derivative(f, 1).values
        assert np.array_equal(a, b)

    def test_dpr_passes_low_modes(self):
        alpha = grid_nodes(64)
        d = filtered_derivative(GridField(np.sin(alpha)), "dpr")
        assert np.max(np.abs(d.values - np.cos(alpha))) <= 1e-13

    def test_dpr_damps_high_mode(self):
        # mode 29 of 64 sits at x = 2*29/64, deep in the damped band where
        # rho1 underflows to exactly 0
        n, m = 64, 29
        alpha = grid_nodes(n)
        assert dpr_rho1(2.0 * m / n) == 0.0
        d = filtered_derivative(GridField(np.cos(m * alpha)), "dpr")
        assert abs(dft(d).coeff(m)) < 1e-25  # mode killed; transform noise only
        assert np.max(np.abs(d.values)) < 1e-12  # residue of other modes only

    def test_krasny_zeroes_tiny_modes(self):
        alpha = grid_nodes(32)
        f = GridField(np.sin(alpha) + 1e-14 * np.sin(5 * alpha))
        d = filtered_derivative(f, "krasny")
        assert np.max(np.abs(d.values - np.cos(alpha))) < 1e-13

    def test_both_on_all_tiny_field_returns_zero(self):
        f = GridField(1e-14 * np.sin(3 * grid_nodes(32)))
        d = filtered_derivative(f, "both")
        assert np.all(d.values == 0.0)


class TestPowerSpectrum:
    def test_single_mode(self):
        s = dft(GridField(np.cos(3 * grid_nodes(32))))
        power = power_spectrum(s)
        m = symmetric_wavenumbers(32)
        assert power[m == 3] == pytest.approx(0.25, abs=1e-15)
        assert power[m == -3] == pytest.approx(0.25, abs=1e-15)
        assert np.sum(power) == pytest.approx(0.5, abs=1e-14)

    def test_zero_spectrum(self):
        assert np.all(power_spectrum(Spectrum(np.zeros(16, dtype=complex))) == 0.0)

    def test_parseval(self, rng):
        values = rng.standard_normal(64)
        total = np.sum(power_spectrum(dft(GridField(values))))
        assert total == pytest.approx(l2_norm(values) ** 2 / (2 * np.pi), rel=1e-12)


class TestInterpolation:
    def test_matches_nodes(self, rng):
        f = band_limited_field(32, 10, rng)
        assert np.max(np.abs(trig_interpolate(f, grid_nodes(32)) - f)) < 1e-12

    def test_band_limited_exact_off_grid(self, rng):
        alpha = np.array([0.3, 1.234, 5.9])
        f = band_limited_field(32, 6, rng)
        from airyflow.spectral import wavenumbers  # reconstruct analytically

        fhat = np.fft.fft(f) / 32
        m = wavenumbers(32)
        exact = np.array([np.sum(fhat * np.exp(1j * m * a)).real for a in alpha])
        assert np.max(np.abs(trig_interpolate(f, alpha) - exact)) < 1e-12

    @pytest.mark.parametrize("n", [512, 4096])
    def test_matches_dense_reference(self, n, rng):
        # the sum over the whole spectrum, one exp per point and mode, with
        # the Nyquist mode as cos(N*beta/2)
        f = rng.normal(size=n)
        beta = rng.uniform(0.0, 2 * np.pi, 200)
        fhat = np.fft.fft(f) / n
        m = spectral.wavenumbers(n)
        interior = m != n // 2
        dense = (np.exp(1j * np.outer(beta, m[interior])) @ fhat[interior]).real
        dense += fhat[n // 2].real * np.cos(n // 2 * beta)
        assert np.max(np.abs(trig_interpolate(f, beta) - dense)) <= 1e-12 * np.max(np.abs(f))

    @pytest.mark.parametrize("n", [8, 16, 4096])
    def test_band_limited_exact_across_block_splits(self, n, rng):
        # N/2 = 4 splits modes into 2 x 2 blocks, N/2 = 8 and 2048 into unequal ones
        alpha = np.array([0.3, 1.234, 5.9])
        f = band_limited_field(n, n // 2 - 1, rng, scale=1.0 / np.sqrt(n))
        fhat = np.fft.fft(f) / n
        m = spectral.wavenumbers(n)
        exact = np.array([np.sum(fhat * np.exp(1j * m * a)).real for a in alpha])
        assert np.max(np.abs(trig_interpolate(f, alpha) - exact)) < 1e-12
