import numpy as np
import pytest
from hypothesis import given, strategies as st

from airyflow import diagnostics, harness
from airyflow.diagnostics import (
    ConservedTriple,
    conserved_quantities,
    convergence_order,
    m3_drift,
    state_difference_norm,
)
from airyflow.errors import NonPositiveError
from airyflow.geometry import ThetaLState
from airyflow.harness import RunConfig
from airyflow.schemes import SchemeConfig, integrate

from conftest import catalog_state, perturbation_error
from oracles import MissingSnapshots, linear_oracle, mkdv_residual


def run_keeping(state, cfg, keep_steps):
    """Step a trajectory, returning the states at the requested step indices."""
    out = {}

    def keep(j, s):
        if j in keep_steps:
            out[j] = s

    last = max(keep_steps)
    integrate(state, cfg, state.time + last * cfg.dt, [(1, keep)])
    return [out[j] for j in sorted(keep_steps)]


class TestConservedQuantities:
    def test_unit_circle_closed_forms(self):
        state, _ = catalog_state("circle", 64)
        t = conserved_quantities(state)
        assert t.m1 == pytest.approx(2 * np.pi, abs=1e-12)
        assert t.m2 == pytest.approx(2 * np.pi, abs=1e-12)
        assert t.m3 == pytest.approx(-np.pi / 4, abs=1e-12)

    @pytest.mark.parametrize("radius", [0.5, 2.0, 3.0])
    def test_circle_radius_scaling(self, radius):
        state, _ = catalog_state("circle", 64, r=radius)
        t = conserved_quantities(state)
        assert t.m1 == pytest.approx(2 * np.pi, abs=1e-10)
        assert t.m2 == pytest.approx(2 * np.pi / radius, abs=1e-10)
        assert t.m3 == pytest.approx(-np.pi / (4 * radius**3), abs=1e-10)

    def test_turning_number_on_catalog(self):
        for shape, kw in (("ellipse", dict(a=1.0, b=0.5)), ("pc3", {}), ("cardioid", {})):
            state, _ = catalog_state(shape, 256, **kw)
            assert conserved_quantities(state).m1 == pytest.approx(2 * np.pi, abs=1e-10)


def _fft_wavenumbers(n, odd):
    m = np.fft.fftfreq(n, 1.0 / n)
    if odd:
        m[n // 2] = 0.0
    return m


def _fft_derivative(values):
    """First derivative through the full complex FFT, the Nyquist mode zeroed."""
    return np.fft.ifft(1j * _fft_wavenumbers(values.size, True) * np.fft.fft(values)).real


def _fft_antiderivative(values):
    m = _fft_wavenumbers(values.size, False)
    m[0] = 1.0  # placeholder: the mean is dropped with the Nyquist mode
    out = np.fft.fft(values) / (1j * m)
    out[[0, values.size // 2]] = 0.0
    return np.fft.ifft(out).real


def _reference_observation(state):
    """The observer quantities computed independently in the full complex FFT:
    two real derivatives for k and k_s, two real antiderivatives for the
    curve, spectral derivatives of x and y for the area, and fft/N power."""
    n, length = state.n, state.length
    k = 2 * np.pi / length * (1.0 + _fft_derivative(state.phi))
    k_s = 2 * np.pi / length * _fft_derivative(k)
    m3 = length * np.mean(0.5 * k_s**2 - 0.125 * k**4)
    theta, s_a = state.theta(), length / (2 * np.pi)
    fx, fy = _fft_antiderivative(s_a * np.cos(theta)), _fft_antiderivative(s_a * np.sin(theta))
    x, y = state.anchor[0] + fx - fx[0], state.anchor[1] + fy - fy[0]
    area = abs(np.pi * np.mean(x * _fft_derivative(y) - y * _fft_derivative(x)))
    coeffs = np.fft.fft(state.phi) / n
    power = np.abs(coeffs[np.arange(-(n // 2) + 1, n // 2 + 1) % n]) ** 2
    return dict(m=(length * np.mean(k), length * np.mean(k**2), m3), max_k=np.max(np.abs(k)),
                points=np.column_stack([x, y]), radius=np.sqrt(area / np.pi),
                centroid=(np.mean(x), np.mean(y)), power=power)


class TestObservePass:
    # dt and closure_tol of presets E and CARDIOID
    @pytest.mark.parametrize("shape, params, dt, tol", [
        ("ellipse", dict(a=1.0, b=0.5), 5e-4, 1e-8), ("cardioid", {}, 1e-5, 1e-4)])
    @pytest.mark.parametrize("steps", [0, 50])
    def test_matches_full_fft_reference(self, shape, params, dt, tol, steps):
        state, _ = catalog_state(shape, 512, **params)
        if steps:
            state = integrate(state, SchemeConfig(scheme="cnadb", dt=dt), steps * dt)
        obs = diagnostics.observe(state, tol)
        ref = _reference_observation(state)
        for got, want in zip((obs.triple.m1, obs.triple.m2, obs.triple.m3), ref["m"]):
            assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(np.max(np.abs(obs.k)) - ref["max_k"]) <= 1e-12 * ref["max_k"]
        assert abs(obs.radius - ref["radius"]) <= 1e-12 * ref["radius"]
        # points and centroid relative to the size of the curve
        size = np.max(np.abs(ref["points"]))
        assert np.max(np.abs(obs.points - ref["points"])) <= 1e-12 * size
        assert np.max(np.abs(np.subtract(obs.centroid, ref["centroid"]))) <= 1e-12 * size
        assert np.max(np.abs(obs.power - ref["power"])) <= 1e-15

    def test_without_tolerance_skips_the_curve(self):
        state, _ = catalog_state("circle", 64)
        obs = diagnostics.observe(state)
        assert obs.points is None and obs.radius is None and obs.centroid is None
        assert obs.triple == conserved_quantities(state)


def max_abs_drift(triples):
    return max(abs(m3_drift(t.m3, triples[0].m3)) for t in triples)


class TestRelativeM3Error:
    def test_constant_series_is_zero(self):
        series = [ConservedTriple(m1=1, m2=2, m3=-0.7, time=0.1 * i) for i in range(5)]
        assert all(m3_drift(t.m3, series[0].m3) == 0.0 for t in series)

    def test_e1_table_row(self):
        # gentlest of the three reference ellipses: max|k|^2 = 4, so the
        # percent-level drift bound holds at the coarse dt = 1e-3
        state, _ = catalog_state("ellipse", 256, a=1.0, b=np.sqrt(2) / 2)
        cfg = SchemeConfig(scheme="cnadb", dt=1e-3)
        triples = []
        integrate(state, cfg, 2.0,
                  observers=[(5, lambda j, s: triples.append(conserved_quantities(s)))])
        assert max_abs_drift(triples) <= 0.025

    def test_e2_table_row(self):
        state, _ = catalog_state("ellipse", 256, a=1.0, b=2 ** 0.25 / 2)
        cfg = SchemeConfig(scheme="cnadb", dt=5e-4)
        triples = []
        integrate(state, cfg, 2.0,
                  observers=[(10, lambda j, s: triples.append(conserved_quantities(s)))])
        assert max_abs_drift(triples) <= 0.04


class TestLinearOracle:
    def test_rotation_rate(self):
        oracle = linear_oracle(1.0, 0.1, 2, 0.0)
        assert oracle.tau == pytest.approx(5.0, abs=1e-14)

    def test_initial_values(self):
        oracle = linear_oracle(1.0, 0.07, 3, 0.0)
        assert oracle.delta_r == 0.07 and oracle.delta_i == 0.0

    def test_period_return(self):
        tau = 5.0
        oracle = linear_oracle(1.0, 0.1, 2, 2 * np.pi / tau)
        assert oracle.delta_r == pytest.approx(0.1, abs=1e-12)
        assert oracle.delta_i == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=10.0))
    def test_rotation_invariant(self, t):
        oracle = linear_oracle(1.0, 0.1, 2, t)
        assert oracle.delta_r**2 + oracle.delta_i**2 == pytest.approx(0.01, rel=1e-12)

    def test_profiles(self):
        oracle = linear_oracle(2.0, 0.05, 2, 0.3)
        alpha = np.linspace(0, 2 * np.pi, 7)
        wave = oracle.delta_r * np.cos(2 * alpha) - oracle.delta_i * np.sin(2 * alpha)
        assert np.allclose(oracle.radius(alpha), 2.0 + wave)
        assert np.allclose(oracle.curvature(alpha), 0.5 + 3.0 / 4.0 * wave)


class TestLinearComparison:
    def test_unperturbed_circle_is_exact(self):
        cfg = RunConfig(shape="circle", n=256, dt=1e-3, t_final=0.0, scheme="cnadb")
        probe = harness._DiagnosticsProbe(cfg)
        probe(0, harness.build_initial_state(cfg))
        row = probe.rows[0]
        assert abs(row.delta_n) <= 1e-10
        assert abs(1.0 - row.radius_n) <= 1e-10

    def test_error_bounded_by_quadratic_fit(self):
        # two-point Richardson: C from the small run bounds the large one
        errors = {delta0: perturbation_error(delta0) for delta0 in (0.05, 0.1)}
        c_small = errors[0.05] / 0.05**2
        assert errors[0.1] <= 2.0 * c_small * 0.1**2


class TestMkdvResidual:
    def test_circle_residual_vanishes(self):
        # exactly constant phi: extraction junk would otherwise be amplified
        # by the 1/(2 dt) centered difference
        state = ThetaLState(
            phi=np.full(64, np.pi / 2), length=2 * np.pi, anchor=(1.0, 0.0)
        )
        cfg = SchemeConfig(scheme="cnadb", dt=1e-3)
        states = run_keeping(state, cfg, {8, 9, 10})
        assert mkdv_residual(states) <= 1e-11

    def test_requires_three_states(self):
        state, _ = catalog_state("circle", 64)
        with pytest.raises(MissingSnapshots):
            mkdv_residual([state, state])

    def test_halving_dt_quarters_residual(self):
        state, _ = catalog_state("ellipse", 512, a=1.0, b=0.5)

        def residual(dt, t_mid=0.02):
            cfg = SchemeConfig(scheme="cnadb", dt=dt)
            n_mid = round(t_mid / dt)
            states = run_keeping(state, cfg, {n_mid - 1, n_mid, n_mid + 1})
            return mkdv_residual(states)

        # dt small enough that every amplitude-carrying mode is temporally
        # resolved; the centered difference then dominates at O(dt^2)
        r1, r2 = residual(4e-5), residual(2e-5)
        assert 3.0 <= r1 / r2 <= 5.0

    def test_origin_relabeling_invariance(self):
        state, _ = catalog_state("ellipse", 256, a=1.0, b=0.5)
        cfg = SchemeConfig(scheme="cnadb", dt=1e-3)
        states = run_keeping(state, cfg, {5, 6, 7})
        base = mkdv_residual(states)

        def roll(s, shift):
            return ThetaLState(
                phi=np.roll(s.phi, shift),
                length=s.length, time=s.time, anchor=s.anchor,
            )

        # relabeling the grid origin rolls every field the same way; phi
        # gains the constant alpha-offset which the derivative kills
        shifted = mkdv_residual([roll(s, 64) for s in states])
        assert abs(shifted - base) <= 1e-10 * max(1.0, base)


class TestConvergenceOrder:
    def test_manufactured_quartering(self):
        eps = 3.7e-4
        assert convergence_order(4 * eps, eps) == pytest.approx(2.0, abs=1e-12)

    def test_two_value_form(self):
        assert convergence_order(8.0, 1.0) == pytest.approx(3.0, abs=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scaling_invariance(self, scale):
        base = convergence_order(4.0, 1.0)
        assert convergence_order(4.0 * scale, scale) == pytest.approx(base, rel=1e-9)

    def test_below_floor_rejected(self):
        with pytest.raises(NonPositiveError):
            convergence_order(1e-3, 1e-16)

    def test_state_difference_norm_restricts_fine_grid(self):
        coarse, _ = catalog_state("ellipse", 128, a=1.0, b=0.5)
        fine, _ = catalog_state("ellipse", 256, a=1.0, b=0.5)
        # same analytic curve: the grids nest, so the norm sees only the
        # tangent-angle truncation of the coarse grid (~1e-10 at N=128)
        assert state_difference_norm(coarse, fine) <= 1e-9

    def test_m2_m3_drift_shrinks_with_dt(self):
        # Richardson-sense monotonicity of the conservation error
        drifts = {}
        for dt in (4e-4, 2e-4):
            state, _ = catalog_state("ellipse", 128, a=1.0, b=np.sqrt(2) / 2)
            cfg = SchemeConfig(scheme="cnadb", dt=dt)
            triples = []
            integrate(state, cfg, 0.4,
                      observers=[(25, lambda j, s: triples.append(conserved_quantities(s)))])
            m2_drift = max(abs(t.m2 - triples[0].m2) for t in triples)
            m3_drift = max(abs(t.m3 - triples[0].m3) for t in triples)
            drifts[dt] = (m2_drift, m3_drift)
        assert drifts[2e-4][0] <= drifts[4e-4][0] + 1e-12
        assert drifts[2e-4][1] <= drifts[4e-4][1] + 1e-12
