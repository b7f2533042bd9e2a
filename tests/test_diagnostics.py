import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from airyflow import diagnostics, harness
from airyflow.diagnostics import (
    ConservedTriple,
    conserved_quantities,
    convergence_order,
    m3_drift,
    state_difference_norm,
)
from airyflow.errors import ClosureViolation, NonPositiveError
from airyflow.geometry import ThetaLState
from airyflow.harness import RunConfig
from airyflow.schemes import SchemeConfig, integrate
from airyflow.spectral import grid_nodes, spectral_derivative

from conftest import band_limited_field, catalog_state, fed_observer, perturbation_error
from oracles import (
    MissingSnapshots,
    linear_oracle,
    mirror,
    mkdv_residual,
    per_state_observe,
    per_state_rows,
    reference_observation,
)


def run_keeping(state, cfg, keep_steps):
    """Step a trajectory, returning the states at the requested step indices."""
    out = {}

    def keep(j, s):
        if j in keep_steps:
            out[j] = s

    last = max(keep_steps)
    integrate(state, cfg, state.time + last * cfg.dt, [(1, keep)])
    return [out[j] for j in sorted(keep_steps)]


def assert_observations_equal(got, want):
    """Every Observation field bitwise equal, scalars as Python floats."""
    for field in dataclasses.fields(diagnostics.Observation):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name
    assert got.triple == want.triple
    assert all(type(value) is float for value in (*dataclasses.astuple(got.triple), got.radius,
                                                  *got.centroid, got.closure))


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


class TestObservePass:
    # dt and closure_tol of presets E and CARDIOID
    @pytest.mark.parametrize("shape, params, dt, tol", [
        ("ellipse", dict(a=1.0, b=0.5), 5e-4, 1e-8), ("cardioid", {}, 1e-5, 1e-4)])
    @pytest.mark.parametrize("steps", [0, 50])
    def test_matches_full_fft_reference(self, shape, params, dt, tol, steps):
        state, _ = catalog_state(shape, 512, **params)
        if steps:
            state = integrate(state, SchemeConfig(scheme="cnadb", dt=dt), steps * dt)
        obs = diagnostics.observe(state)
        assert obs.triple == conserved_quantities(state)
        assert obs.closure <= tol  # the preset's states close
        ref = reference_observation(state)
        for got, want in zip((obs.triple.m1, obs.triple.m2, obs.triple.m3), ref["m"]):
            assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(np.max(np.abs(obs.k)) - ref["max_k"]) <= 1e-12 * ref["max_k"]
        assert abs(obs.radius - ref["radius"]) <= 1e-12 * ref["radius"]
        # points and centroid relative to the size of the curve
        size = np.max(np.abs(ref["points"]))
        assert np.max(np.abs(obs.points - ref["points"])) <= 1e-12 * size
        assert np.max(np.abs(np.subtract(obs.centroid, ref["centroid"]))) <= 1e-12 * size
        assert np.max(np.abs(obs.power - ref["power"])) <= 1e-15

    @pytest.mark.parametrize("preset", ["E", "CARDIOID"])
    def test_probe_rows_match_reference(self, preset):
        dt = harness.PRESETS[preset]["dt"]
        cfg = harness.preset_config(preset, t_final=40 * dt, diagnostic_stride=20)
        probe, states = harness._BlockObserver(cfg, cfg.closure_tol), []
        result = probe.run(harness.build_initial_state(cfg),
                           [(20, probe.watch("rows")), (20, lambda j, s: states.append(s))])
        assert result.status == "completed", result.error
        refs = [reference_observation(s) for s in states]
        m3_0, r0 = refs[0]["m"][2], refs[0]["radius"]
        size = np.max(np.abs(refs[0]["points"]))
        assert len(result.rows) == len(refs) == 3
        for row, ref in zip(result.rows, refs):
            for got, want in zip((row.m1, row.m2, row.m3), ref["m"]):
                assert abs(got - want) <= 1e-12 * abs(want)
            assert abs(row.xi - (ref["m"][2] - m3_0) / m3_0) <= 1e-12
            assert abs(row.max_curvature - ref["max_k"]) <= 1e-12 * ref["max_k"]
            assert abs(row.radius_n - ref["radius"]) <= 1e-12 * ref["radius"]
            x, y = ref["points"].T
            cx, cy = ref["centroid"]
            assert abs(row.delta_n - (np.max(np.hypot(x - cx, y - cy)) - r0)) <= 1e-12 * size
            assert max(abs(row.centroid_x - cx), abs(row.centroid_y - cy)) <= 1e-12 * size
            assert abs(row.tail_max - np.max(ref["power"][3 * cfg.n // 4:])) <= 1e-15

    # observed states of presets E and CARDIOID, every fifth step
    @pytest.fixture(scope="class", params=["E", "CARDIOID"])
    def preset_states(self, request):
        cfg = harness.preset_config(request.param)
        count = harness.OBSERVE_BLOCK + 1
        states = []
        integrate(harness.build_initial_state(cfg), cfg, 5 * (count - 1) * cfg.dt,
                  [(5, lambda j, s: states.append(s))])
        return states

    @pytest.mark.parametrize("size", [1, harness.OBSERVE_BLOCK - 1, harness.OBSERVE_BLOCK,
                                      harness.OBSERVE_BLOCK + 1])
    def test_block_pass_bitwise_equal_to_per_state_pass(self, preset_states, size):
        states = preset_states
        block = diagnostics.observe(states[:size])
        assert block.k.shape == (size, states[0].n)
        for i, state in enumerate(states[:size]):
            want = per_state_observe(state)
            assert_observations_equal(block[i], want)
            assert_observations_equal(diagnostics.observe(state), want)

    def test_block_peak_memory(self, preset_states):
        # the slope spectra are dropped once the curve is built, before the
        # row pass, where the pass peaks
        block = preset_states[:harness.OBSERVE_BLOCK]
        diagnostics.observe(block)  # builds the cached nodes and symbols
        tracemalloc.start()
        try:
            diagnostics.observe(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 900 * 2**10

    def test_pass_takes_two_transforms(self, monkeypatch):
        state, _ = catalog_state("ellipse", 64, a=1.0, b=0.5)
        counts = dict.fromkeys(("rfft", "irfft", "fft", "ifft"), 0)
        shapes = []
        for name in counts:
            original = getattr(np.fft, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                shapes.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)

        # phi and the two tangent rows share the rfft; the slopes of phi
        # ride the irfft with the curve's antiderivative
        diagnostics.observe(state)
        assert counts == dict(rfft=1, irfft=1, fft=0, ifft=0)
        assert shapes == [("rfft", (3, 64)), ("irfft", (4, 33))]

    def test_closure_boundary(self):
        # theta = alpha + a cos(alpha) with L = 2 pi has the mean tangent
        # (0, J_1(a)), and J_1(a) = a/2 - a^3/16 + ... = 1.1e-8 here
        a = 2.2e-8
        state = ThetaLState(phi=a * np.cos(grid_nodes(64)), length=2 * np.pi, time=0.375)
        mean_y = a / 2 * (1 - a**2 / 8)
        defect = diagnostics.observe(state).closure
        assert defect == pytest.approx(mean_y, rel=1e-8)
        # the check is strict: a defect at the tolerance passes
        for tol in (mean_y * (1 + 1e-6), defect):
            observer = fed_observer([state], tol)
            observer.flush()
            assert len(observer.rows) == 1
        observer = fed_observer([state], mean_y * (1 - 1e-6))
        with pytest.raises(ClosureViolation) as err:
            observer.flush()
        assert (err.value.step, err.value.time) == (0, 0.375)
        assert err.value.defect == defect and err.value.tol == mean_y * (1 - 1e-6)
        assert str(err.value) == (f"closure at step 0 (t=0.375): curve does not close: "
                                  f"defect {defect:.3e} exceeds {mean_y * (1 - 1e-6):.3e}")
        assert observer.rows == []

    def test_block_raises_for_its_first_open_state(self):
        # theta = alpha + a cos(alpha) has the mean tangent (0, J_1(a)) at L = 2 pi
        closed = [ThetaLState(phi=np.full(64, c), length=2 * np.pi, time=0.25 + c)
                  for c in (0.0, 0.125)]
        block = closed + [ThetaLState(phi=a * np.cos(grid_nodes(64)), length=2 * np.pi,
                                      time=0.5 + a) for a in (1e-3, 2e-3)]
        observer = fed_observer(block, 1e-6)
        with pytest.raises(ClosureViolation) as err:
            observer.flush()
        assert (err.value.step, err.value.time) == (2, 0.501)
        assert err.value.defect == per_state_observe(block[2]).closure
        # the closed states before it keep their rows, bit for bit
        assert observer.rows == per_state_rows(closed)
        assert observer.pending == {}
        assert diagnostics.observe(block).closure.tolist() == [
            per_state_observe(state).closure for state in block]

    def test_closure_is_the_larger_mean_tangent_part(self):
        # theta = alpha + a sin(alpha) with L = 2 pi has the mean tangent (-J_1(a), 0)
        a = 1e-3
        state = ThetaLState(phi=a * np.sin(grid_nodes(64)), length=2 * np.pi)
        assert diagnostics.observe(state).closure == pytest.approx(a / 2 * (1 - a**2 / 8),
                                                                   rel=1e-12)


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


class TestMirror:
    # random smooth states: a band-limited phi, any length and anchor
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 0.05),
           length=st.floats(0.5, 20.0), x0=st.floats(-5.0, 5.0), y0=st.floats(-5.0, 5.0))
    # M3 = -0.2888 there, two summands of about 201 cancelling
    @example(seed=513, scale=0.005314497257781128, length=1.0, x0=0.0, y0=0.0)
    def test_involution_preserving_invariants(self, seed, scale, length, x0, y0):
        phi = band_limited_field(64, 8, np.random.default_rng(seed), scale)
        state = ThetaLState(phi=phi, length=length, time=0.5, anchor=(x0, y0))
        twice = mirror(mirror(state))
        assert np.max(np.abs(twice.phi - state.phi)) <= 4 * np.spacing(np.pi)
        assert (twice.length, twice.time, twice.anchor) == (state.length, state.time,
                                                           state.anchor)
        assert mirror(state).anchor == (x0, -y0)
        obs = diagnostics.observe([state, mirror(state)])
        triple, k = obs.triple, obs.k[0]
        # M3's roundoff scales with its summands, L mean(k_s^2/2 + k^4/8), not
        # with the difference they cancel to
        k_s = 2.0 * np.pi / length * spectral_derivative(k)
        summands = length * np.mean(k_s**2 / 2 + k**4 / 8)
        for m, size in ((triple.m1, abs(triple.m1[0])), (triple.m2, abs(triple.m2[0])),
                        (triple.m3, summands)):
            assert abs(m[1] - m[0]) <= 1e-12 * max(1.0, size)


class TestLinearComparison:
    def test_unperturbed_circle_is_exact(self):
        cfg = RunConfig(shape="circle", n=256, dt=1e-3, t_final=0.0, scheme="cnadb")
        probe = harness._BlockObserver(cfg, cfg.closure_tol)
        probe.watch("rows")(0, harness.build_initial_state(cfg))
        probe.flush()
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
