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


#: (m, eps, t_final, finest-error bound, scheme[+filter]) on two waves at N = 256; measured
#: max |phi - phi_exact| at dt = T/250, T/500, T/1000 (each halving's order):
#:   cn       1.92e-7, 4.81e-8, 1.20e-8 (2.000, 2.000); 1.16e-4, 2.89e-5, 7.24e-6 (2.000, 1.999)
#:   cnadb    1.99e-7, 4.97e-8, 1.24e-8 (1.999, 2.000); 1.03e-4, 2.55e-5, 6.40e-6 (2.020, 1.994)
#:   adb+dpr  2.47e-7, 6.17e-8, 1.54e-8 (2.002, 2.001); 1.94e-5, 4.76e-6, 1.18e-6 (2.024, 2.013)
SECOND_ORDER_RUNS = [(2, 0.1, 0.1, 1.25e-8, "cn"), (3, 0.15, 0.2, 7.5e-6, "cn"),
                     (2, 0.1, 0.1, 1.3e-8, "cnadb"), (3, 0.15, 0.2, 6.7e-6, "cnadb"),
                     (2, 0.1, 0.1, 1.6e-8, "adb+dpr"), (3, 0.15, 0.2, 1.25e-6, "adb+dpr")]
#: each scheme's window for the measured orders
ORDER_WINDOWS = {"cn": (1.99, 2.01), "cnadb": (1.99, 2.03), "adb+dpr": (1.99, 2.03)}


# a cn run's id is its wave's alone
@pytest.mark.parametrize("m, eps, t_final, finest, scheme", SECOND_ORDER_RUNS, ids=[
    "-".join(map(str, run[:4])) + (f"-{run[4]}" if run[4] != "cn" else "")
    for run in SECOND_ORDER_RUNS])
def test_cn_second_order_against_the_exact_wave(m, eps, t_final, finest, scheme):
    wave = wave_of(m, eps, 256)
    name, _, mode = scheme.partition("+")
    errors = [np.abs(integrate(wave.state(), SchemeConfig(name, t_final / k, mode or "none"),
                               t_final).phi - wave.exact(t_final)).max() for k in (250, 500, 1000)]
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    lowest, highest = ORDER_WINDOWS[scheme]
    assert np.all((lowest <= orders) & (orders <= highest)), orders
    assert errors[-1] <= finest
