import numpy as np
import pytest
from hypothesis import given, strategies as st

from airyflow import spectral
from airyflow.errors import ValidationError
from airyflow.spectral import (
    _dpr_profile,
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
from oracles import reference_filter


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
    fhat = reference_filter(half_spectrum(field), mode)
    d_hat = spectral._derivative_symbol(n) * fhat
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

    @pytest.mark.parametrize("rows", [(), (3,)], ids=["row", "stack"])
    @pytest.mark.parametrize("log2n", range(3, 13))
    def test_pair_is_bitwise_numpys_forward_pair(self, rng, log2n, rows):
        # the pair calls numpy's private pocketfft gufuncs: a numpy release
        # that changes them fails here
        n = 1 << log2n
        values = rng.normal(size=(*rows, n))
        # any complex half spectrum, the mean and Nyquist slots' imaginary parts too
        coeffs = rng.normal(size=(*rows, n // 2 + 1)) + 1j * rng.normal(size=(*rows, n // 2 + 1))
        pairs = ((spectral.rfft, values, np.fft.rfft(values, norm="forward")),
                 (spectral.irfft, coeffs, np.fft.irfft(coeffs, n, norm="forward")))
        for transform, given, want in pairs:
            got = transform(given)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            out = np.empty_like(want)
            assert transform(given, out) is out
            assert out.tobytes() == want.tobytes()


class TestDerivatives:
    def test_sine_derivative_exact(self):
        alpha = grid_nodes(32)
        d = spectral_derivative(np.sin(alpha))
        assert np.max(np.abs(d - np.cos(alpha))) <= 1e-13

    def test_constant_derivative_zero(self):
        d = spectral_derivative(np.full(16, 2.5))
        assert np.max(np.abs(d)) < 1e-13

    def test_rows_differentiated_each_as_alone(self, rng):
        rows = rng.standard_normal((3, 64))
        for calculus in (spectral_derivative, spectral_antiderivative):
            for row, d_row in zip(rows, calculus(rows)):
                assert np.array_equal(d_row, calculus(row))
            # N is the last axis: (2, 4) holds 8 samples but rows of 4
            with pytest.raises(ValidationError):
                calculus(rows[:2, :4])

    def test_product_rule_on_band_limited(self, rng):
        # total band 5 + 7 < N/2: the product is exactly representable
        alpha = grid_nodes(64)
        f = band_limited_field(64, 5, rng)
        g = band_limited_field(64, 7, rng)
        df = spectral_derivative(f)
        dg = spectral_derivative(g)
        dfg = spectral_derivative(f * g)
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
        d = spectral_derivative(f)
        back = spectral_antiderivative(d)
        assert np.max(np.abs(back - f)) <= 1e-12

    def test_antiderivative_then_derivative_removes_mean(self, rng):
        f = band_limited_field(64, 20, rng) + 1.7
        a = spectral_antiderivative(f)
        d = spectral_derivative(a)
        assert np.max(np.abs(d - (f - f.mean()))) <= 1e-12


class TestDprRho1:
    """rho1(m h/pi) as the "dpr" filter applies it: ``_dpr_profile(n)`` over
    m = 0..N/2, so N = 8 samples x = 0, 1/4, 1/2, 3/4, 1."""

    def test_flat_band(self):
        assert _dpr_profile(8)[1] == 1.0
        assert _dpr_profile(8)[0] == 1.0

    def test_endpoints_exactly_zero(self):
        for n in (8, 64, 512):
            assert _dpr_profile(n)[-1] == 0.0

    def test_third_branch_value(self):
        assert _dpr_profile(8)[3] == pytest.approx(np.exp(-15.0), rel=1e-12)

    def test_continuous_at_half(self):
        # the first sample past x = 1/2, at 1/2 + 2/N, is 1 - 16/N to first
        # order: it tends to 1 as N grows
        assert _dpr_profile(8)[2] == 1.0
        for n in (512, 4096, 65536):
            assert 1.0 - 17.0 / n <= _dpr_profile(n)[n // 4 + 1].real < 1.0

    @given(st.integers(min_value=3, max_value=14))
    def test_real_and_bounded(self, log2n):
        profile = _dpr_profile(2**log2n)
        assert profile.dtype == np.complex128 and np.all(profile.imag == 0.0)
        assert np.all((0.0 <= profile.real) & (profile.real <= 1.0))

    def test_nonincreasing_on_tail(self):
        vals = _dpr_profile(512)[128:]  # x = 0.5 ... 1 in steps of 1/256
        assert np.all(np.diff(vals) <= 1e-16)


class TestKrasnyRho2:
    """rho2 as the "krasny" filter applies it to a half spectrum (N = 8, 5 modes)."""

    def test_threshold(self):
        out = mode_filter("krasny", 8)(np.array([1e-14, 1e-12, 0.0, 0.5, 1.0], dtype=complex))
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
        out = mode_filter("krasny", 8)(coeffs)
        below = np.abs(coeffs) < 1e-13
        assert np.all(out[below] == 0.0)
        assert np.array_equal(out[~below], coeffs[~below])
        assert out.tobytes() == reference_filter(coeffs, "krasny").tobytes()


class TestFilterInPlace:
    """A resolved filter into ``out``: the input left alone, or overwritten
    with exactly the bits of the filter's formula (``reference_filter``)."""

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
        apply = mode_filter(mode, 64)
        if mode == "none":
            assert apply is None
            return
        c = self.coeffs()
        kept = c.copy()
        with np.errstate(invalid="ignore"):  # dpr: inf times the zero Nyquist weight
            out = apply(c)
        assert np.array_equal(c, kept, equal_nan=True)
        assert out is not c

    @pytest.mark.parametrize("mode", spectral.FILTERS)
    def test_in_place_and_into_out_bitwise_equal(self, mode):
        apply = mode_filter(mode, 64)
        if mode == "none":
            assert apply is None
            return
        c, other = self.coeffs(), np.full(33, 7.0 + 0j)
        with np.errstate(invalid="ignore"):  # dpr: inf times the zero Nyquist weight
            expected = reference_filter(self.coeffs(), mode)
            assert apply(c, c) is c
            into = apply(self.coeffs(), other)
        assert into is other
        for got in (c, into):
            # the same bits, signed zeros and nans included
            assert got.tobytes() == expected.tobytes()
        assert np.isnan(c[5]) and c[3] == spectral.KRASNY_THRESHOLD
        if mode == "krasny":
            assert c[4] == 0.0 and np.all(c[8:12] == 0.0)

    @pytest.mark.parametrize("mode", spectral.FILTERS)
    def test_resolved_filter_bitwise_equal(self, mode):
        # one resolved filter, its buffers reused call after call, in place,
        # into out and into a new array
        apply = mode_filter(mode, 64)
        if mode == "none":
            assert apply is None
            return
        with np.errstate(invalid="ignore"):  # dpr: inf times the zero Nyquist weight
            expected = reference_filter(self.coeffs(), mode)
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
        assert mode_filter("krasny", 64)(c).tobytes() == expected.tobytes()


class TestFilteredDerivative:
    def test_none_is_bitwise_plain_derivative(self, rng):
        f = rng.standard_normal(64)
        a = filtered_derivative(f, "none")
        b = spectral_derivative(f)
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
        assert np.max(np.abs(trig_interpolate(f, grid_nodes(32))[0] - f)) < 1e-12

    def test_band_limited_exact_off_grid(self, rng):
        alpha = np.array([0.3, 1.234, 5.9])
        f = band_limited_field(32, 6, rng)
        fhat = np.fft.fft(f) / 32  # reconstruct analytically
        m = fft_wavenumbers(32)
        exact = np.array([np.sum(fhat * np.exp(1j * m * a)).real for a in alpha])
        assert np.max(np.abs(trig_interpolate(f, alpha)[0] - exact)) < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 512, 4096, 8192])
    def test_matches_dense_reference(self, n, rng):
        # the sum over the whole spectrum, one exp per point and mode, with
        # the Nyquist mode as cos(N*beta/2), in extended precision: in doubles
        # the phases m*beta round, by up to 1e-12 of max|f| at N = 8192.  The
        # points lie anywhere in [0, 2pi), on midpoints between nodes (|u| =
        # 1/2, the series' worst case), below 0 and beyond 2pi; the rows are
        # random and the Nyquist mode alone
        h = 2 * np.pi / n
        nodes = rng.integers(0, n, 10)
        beta = np.concatenate([rng.uniform(0.0, 2 * np.pi, 10), (nodes + 0.5) * h,
                               (nodes - 0.5) * h, rng.uniform(-4 * np.pi, 0.0, 10),
                               rng.uniform(2 * np.pi, 6 * np.pi, 10)])
        m = fft_wavenumbers(n)
        interior = m != n // 2
        phase = np.outer(beta.astype(np.longdouble), m[interior])
        for f in (rng.normal(size=n), np.cos(np.pi * np.arange(n))):
            fhat = np.fft.fft(f) / n
            dense = np.cos(phase) @ fhat[interior].real - np.sin(phase) @ fhat[interior].imag
            dense += fhat[n // 2].real * np.cos(n // 2 * beta.astype(np.longdouble))
            assert np.max(np.abs(trig_interpolate(f, beta)[0] - dense)) <= 1e-12 * np.max(np.abs(f))

    @pytest.mark.parametrize("n", [8, 16, 512, 4096])
    def test_stack_matches_one_call_per_row(self, n, rng):
        rows = rng.normal(size=(3, n))
        beta = rng.uniform(0.0, 2 * np.pi, n)
        stacked, _ = trig_interpolate(rows, beta)
        assert stacked.shape == (3, n)
        for row, got in zip(rows, stacked):
            assert np.array_equal(got, trig_interpolate(row, beta)[0])

    @pytest.mark.parametrize("n", [8, 16, 512, 4096, 8192])
    def test_derivative_matches_dense_reference(self, n, rng):
        # the derivative of the interpolant of the package's own half spectrum
        # c_m (the conjugate pairs counted twice, the Nyquist slot as
        # cos(N*beta/2)): -sum m (Re c_m sin(m*beta) + Im c_m cos(m*beta)) in
        # extended precision, at the points of the value's dense test.  A
        # spectrum from another transform would differ by roundoff that the
        # derivative scales by m.  The error measured at most 9.2e-16 of
        # sum |m c_m| over these rows and points
        h = 2 * np.pi / n
        nodes = rng.integers(0, n, 10)
        beta = np.concatenate([rng.uniform(0.0, 2 * np.pi, 10), (nodes + 0.5) * h,
                               (nodes - 0.5) * h, rng.uniform(-4 * np.pi, 0.0, 10),
                               rng.uniform(2 * np.pi, 6 * np.pi, 10)])
        m = np.arange(n // 2 + 1)
        phase = np.outer(beta.astype(np.longdouble), m)
        alpha = grid_nodes(n)
        for f in (rng.normal(size=n), np.cos(n // 2 * alpha), np.sin(3 * alpha),
                  np.exp(np.sin(alpha))):
            c = m * half_spectrum(f)
            c[1:-1] *= 2.0
            dense = -(np.sin(phase) @ c.real) - np.cos(phase) @ c.imag
            _, derivative = trig_interpolate(f, beta)
            assert np.max(np.abs(derivative - dense)) <= 4e-15 * np.sum(np.abs(c))

    @pytest.mark.parametrize("n", [8, 16, 512, 4096])
    def test_stack_derivative_matches_one_call_per_row(self, n, rng):
        rows = rng.normal(size=(3, n))
        beta = rng.uniform(0.0, 2 * np.pi, n)
        _, stacked = trig_interpolate(rows, beta)
        assert stacked.shape == (3, n)
        for row, got in zip(rows, stacked):
            assert np.array_equal(got, trig_interpolate(row, beta)[1])

    @pytest.mark.parametrize("n", [8, 16, 4096])
    def test_band_limited_exact_across_block_splits(self, n, rng):
        # every mode below the Nyquist one, where the series' terms are largest
        alpha = np.array([0.3, 1.234, 5.9])
        f = band_limited_field(n, n // 2 - 1, rng, scale=1.0 / np.sqrt(n))
        fhat = np.fft.fft(f) / n
        m = fft_wavenumbers(n)
        exact = np.array([np.sum(fhat * np.exp(1j * m * a)).real for a in alpha])
        assert np.max(np.abs(trig_interpolate(f, alpha)[0] - exact)) < 1e-12
