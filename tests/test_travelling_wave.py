"""The travelling-wave oracle: an exact solution of the nonlinear flow, and
the true error of a scheme against it."""

import functools

import numpy as np
import pytest

from airyflow import diagnostics
from airyflow.schemes import SchemeConfig, integrate
from airyflow.spectral import spectral_derivative

from oracles import travelling_wave

#: each wave is solved once for the module
wave_of = functools.cache(travelling_wave)

#: (m, eps, N): a gentle and a strong two-fold wave (k dips to -0.45 on
#: the second), a three-fold and a four-fold one
WAVES = [(2, 0.1, 256), (2, 0.8, 256), (3, 0.15, 256), (4, 0.08, 512)]


def observed(wave):
    state = wave.state()
    return diagnostics.observe(state.phi[None], state.length, state.anchor)


@pytest.mark.parametrize("m, eps, n", WAVES)
class TestWave:
    def test_truncation_resolved(self, m, eps, n):
        # b_K is Newton's roundoff, so K terms hold the whole wave:
        # measured |b_K| <= 1.1e-22 on these four waves
        assert abs(wave_of(m, eps, n).coefficients[-1]) <= 1e-18

    def test_profile_equation_at_the_nodes(self, m, eps, n):
        # k_ss + k^3/2 = mu k + p with s = alpha (L = 2 pi), k read by
        # observe: two spectral derivatives lift roundoff by about N^2
        wave = wave_of(m, eps, n)
        k = observed(wave).k[0]
        k_ss = spectral_derivative(spectral_derivative(k))
        assert np.abs(k_ss + 0.5 * k**3 - wave.mu * k - wave.p).max() <= 1e-14 * n**2

    def test_curve_closes(self, m, eps, n):
        # a roundoff bound: measured closure defect <= 5.4e-17
        assert observed(wave_of(m, eps, n)).closure[0] <= 1e-15


def test_unresolved_wave_is_refused():
    with pytest.raises(ValueError, match="does not resolve"):
        travelling_wave(4, 0.08, 8)


@pytest.mark.parametrize("m, eps, t_final, finest", [(2, 0.1, 0.1, 1.25e-8),
                                                    (3, 0.15, 0.2, 7.5e-6)])
def test_cn_second_order_against_the_exact_wave(m, eps, t_final, finest):
    # measured max |phi - phi_exact| at N = 256 and dt = T/250, T/500, T/1000:
    # 1.92e-7, 4.81e-8, 1.20e-8 on (2, 0.1) and 1.16e-4, 2.89e-5, 7.24e-6
    # on (3, 0.15); every order 2.00
    wave = wave_of(m, eps, 256)
    errors = [np.abs(integrate(wave.state(), SchemeConfig("cn", t_final / k), t_final).phi
                     - wave.exact(t_final)).max() for k in (250, 500, 1000)]
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((1.99 <= orders) & (orders <= 2.01)), orders
    assert errors[-1] <= finest
