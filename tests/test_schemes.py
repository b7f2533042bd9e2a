import ast
import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from airyflow import diagnostics, harness, schemes
from airyflow.errors import BlowUp, NonCommensurateTime, ValidationError
from airyflow.geometry import ThetaLState
from airyflow.schemes import (
    SchemeConfig,
    integrate,
    nonlinear_term,
    step_rules,
)
from airyflow.spectral import FILTERS, _derivative_symbol, grid_nodes, mode_filter

from conftest import (NUMPY_TRANSFORMS, band_limited_field, catalog_state, count_transforms,
                      observe_states, observed_states, state_observer)
from oracles import reference_filter, reference_levels


def zero_nl(phi_hat, length, filter, *work):
    """A substitute for schemes.nonlinear_term that zeroes the term."""
    return np.zeros(2 * (phi_hat.size - 1))


def phi_hat(state):
    return np.fft.fft(state.phi) / state.n


def half(state):
    """The half spectrum the stepper carries."""
    return np.fft.rfft(state.phi, norm="forward")


def first_step(state, cfg, nonlinear=None):
    return integrate(state, cfg, state.time + cfg.dt, nonlinear=nonlinear)


def trajectory(state, cfg, steps, nonlinear=None):
    """The states at steps 0..steps."""
    return observed_states(state, cfg, state.time + steps * cfg.dt, 1, nonlinear)


def exact_guard_run(state, cfg, steps, nonlinear=None):
    """The reference loop with max|phi| read off the grid at every step.

    Returns the (step, message) of the first :class:`BlowUp`, or None, and
    the number of steps that passed the guard although the spectral bound
    2 sqrt((N/2+1) sum|phi_hat_m|^2) exceeded half the limit.
    """
    near = 0
    for j, level in reference_levels(state, cfg, steps, nonlinear):
        peak = float(np.abs(np.fft.irfft(level, state.n, norm="forward")).max())
        limit = schemes.BLOWUP_LIMIT
        if not (math.isfinite(peak) and peak <= limit):
            detail = f"max|phi| = {peak:.3e} exceeds {limit:.3e}"
            return (j, str(BlowUp(j, state.time + j * cfg.dt, detail))), near
        near += not schemes._spectral_bound_sq(level) <= (limit / 2) ** 2
    return None, near


def guarded_run(state, cfg, steps, nonlinear=None):
    """integrate's (step, message) of its BlowUp, or None."""
    try:
        integrate(state, cfg, state.time + steps * cfg.dt, nonlinear=nonlinear)
    except BlowUp as err:
        return err.step, str(err)
    return None


def single_mode_state(n, m, amplitude=0.2, length=2 * np.pi):
    return ThetaLState(
        phi=amplitude * np.cos(m * grid_nodes(n)), length=length
    )


def exact_linear_phi(state, t):
    """Analytic modal solution of phi_t = (2*pi/L)^3 phi_aaa from state at t=0."""
    n = state.n
    m = np.fft.fftfreq(n, 1.0 / n)
    m[n // 2] = 0.0
    omega = (2 * np.pi * m / state.length) ** 3
    evolved = phi_hat(state) * np.exp(-1j * omega * t)
    return (np.fft.ifft(evolved) * n).real


class TestMultipliers:
    def test_unimodularity_and_zero_mode(self):
        # zeta is the adb start's a; zeta1 and 2 dt zeta2 are the cn step's b and c
        dt = 1e-3
        zeta = step_rules(SchemeConfig(scheme="adb", dt=dt), 4096, 5.0)[0].a
        leapfrog = step_rules(SchemeConfig(scheme="cn", dt=dt), 4096, 5.0)[1]
        zeta1, zeta2 = leapfrog.b, leapfrog.c / (2.0 * dt)
        assert zeta.size == 4096 // 2 + 1  # the half spectrum m = 0..N/2
        # exp(i*gamma) is unimodular up to one rounding of cos/sin
        assert np.max(np.abs(np.abs(zeta) - 1.0)) <= 3e-16
        assert np.max(np.abs(np.abs(zeta1) - 1.0)) <= 1e-15
        assert np.max(np.abs(zeta2)) <= 1.0 + 1e-15
        assert zeta[0] == zeta1[0] == zeta2[0] == 1.0


class TestNonlinearTerm:
    def test_circle_is_constant_half(self):
        state, _ = catalog_state("circle", 64)
        nl = nonlinear_term(half(state), state.length)
        assert np.max(np.abs(nl - 0.5)) < 1e-12

    def test_low_mode_state_pointwise(self):
        alpha = grid_nodes(64)
        state = ThetaLState(phi=0.1 * np.sin(alpha), length=2 * np.pi)
        nl = nonlinear_term(half(state), state.length)
        assert np.max(np.abs(nl - (1 + 0.1 * np.cos(alpha)) ** 3 / 2)) <= 1e-13

    def test_filters_inert_on_low_modes(self, rng):
        phi = band_limited_field(64, 6, rng, scale=0.05)
        state = ThetaLState(phi=phi, length=5.0)
        a = nonlinear_term(half(state), state.length)
        for mode in ("dpr", "krasny"):
            b = nonlinear_term(half(state), state.length, mode_filter(mode, 64))
            assert np.max(np.abs(a - b)) <= 1e-13

    @pytest.mark.parametrize("filter", FILTERS)
    def test_matches_reference_formula(self, filter):
        # (2 pi/L)^3 (1 + irfft(D filter(phi_hat)))^3 / 2, cubed by power;
        # measured: at most 2.5 ulps of max|term| off, for every filter
        state, _ = catalog_state("ellipse", 512, a=1.0, b=0.5)
        level = half(state)
        d_phi = _derivative_symbol(512) * reference_filter(level, filter)
        theta_a = 1.0 + np.fft.irfft(d_phi, 512, norm="forward")
        reference = (2.0 * np.pi / state.length) ** 3 * theta_a**3 / 2.0
        term = nonlinear_term(level, state.length, mode_filter(filter, 512))
        eps = np.finfo(np.float64).eps
        assert np.max(np.abs(term - reference)) <= 4 * eps * np.max(np.abs(reference))


class TestAdb:
    def test_init_is_exact_on_linear_problem(self):
        state = single_mode_state(64, 3)
        cfg = SchemeConfig(scheme="adb", dt=1e-2)
        new = first_step(state, cfg, nonlinear=zero_nl)
        # the start needs no history; later steps carry NL one level back
        start, rule = step_rules(cfg, state.n, state.length)
        assert start.b is None and start.d is None and rule.d is not None
        assert np.max(np.abs(new.phi - exact_linear_phi(state, 1e-2))) <= 1e-14

    def test_zero_mode_euler_growth(self):
        state, _ = catalog_state("circle", 64)
        cfg = SchemeConfig(scheme="adb", dt=1e-3)
        new = first_step(state, cfg)
        # NL is 1/2 on the unit circle and zeta_0 = 1
        assert np.mean(new.phi) - np.mean(state.phi) == pytest.approx(
            5e-4, rel=1e-10
        )
        assert np.max(np.abs(new.phi - np.mean(new.phi))) < 1e-12

    def test_multistep_linear_exactness(self):
        state = ThetaLState(
            phi=band_limited_field(64, 8, np.random.default_rng(7), 0.1),
            length=2 * np.pi,
        )
        cfg = SchemeConfig(scheme="adb", dt=1e-3)
        final = integrate(state, cfg, 10.0, nonlinear=zero_nl)
        assert np.max(np.abs(final.phi - exact_linear_phi(state, 10.0))) <= 1e-12

    def test_circle_modes_stay_empty(self):
        state, _ = catalog_state("circle", 64)
        cfg = SchemeConfig(scheme="adb", dt=1e-3)
        final = integrate(state, cfg, 0.1)
        spectrum = np.abs(phi_hat(final))
        assert np.max(spectrum[1:]) <= 1e-13
        assert np.max(np.abs(observe_states([final]).k[0] - 1.0)) <= 1e-12


class TestCn:
    def test_init_matches_adb_on_circle(self):
        # exactly constant phi: the linear term vanishes, so the euler and
        # integrating-factor starts agree to machine precision
        state = ThetaLState(
            phi=np.full(64, np.pi / 2), length=2 * np.pi, anchor=(1.0, 0.0)
        )
        cfg = SchemeConfig(scheme="cn", dt=1e-3)
        a = first_step(state, cfg)
        b = first_step(state, SchemeConfig(scheme="adb", dt=1e-3))
        assert np.max(np.abs(a.phi - b.phi)) <= 1e-15

    def test_init_from_zero_state_is_dt_times_forcing(self, rng):
        n = 32
        g = band_limited_field(n, 5, rng)
        state = ThetaLState(phi=np.zeros(n), length=2 * np.pi)
        cfg = SchemeConfig(scheme="cn", dt=1e-3)
        new = first_step(state, cfg, nonlinear=lambda *args: g)
        assert np.max(np.abs(new.phi - 1e-3 * g)) <= 1e-16

    def test_init_single_mode_multiplier(self):
        state = single_mode_state(32, 1, amplitude=0.1)
        cfg = SchemeConfig(scheme="cn", dt=1e-3)
        new = first_step(state, cfg, nonlinear=zero_nl)
        # gamma_1 = dt at L = 2*pi, so the mode picks up (1 - i dt)
        expected = (1.0 - 1e-3j) * phi_hat(state)[1]
        assert phi_hat(new)[1] == pytest.approx(expected, abs=1e-16)

    def test_leapfrog_preserves_modulus(self):
        # |zeta1| = 1: each interleaved leapfrog chain preserves its own
        # modulus (the even chain starts from phi^0, the odd from the
        # euler-started phi^1) for any number of steps
        state = single_mode_state(32, 2)
        cfg = SchemeConfig(scheme="cn", dt=2e-3)
        states = trajectory(state, cfg, 501, nonlinear=zero_nl)
        amp_even = abs(phi_hat(state)[2])
        amp_odd = abs(phi_hat(states[1])[2])
        levels = {level: abs(phi_hat(s)[2]) for level, s in enumerate(states)}
        assert levels[500] == pytest.approx(amp_even, rel=1e-12)
        assert levels[501] == pytest.approx(amp_odd, rel=1e-12)

    def test_gamma_one_double_step_negates(self):
        # gamma_1 = 1 at L = 2*pi, dt = 1: zeta1 = (1-i)/(1+i) = -i, and two
        # leapfrog applications multiply the j-1 level by -1
        n = 32
        state = single_mode_state(n, 1)
        cfg = SchemeConfig(scheme="cn", dt=1.0)
        _, s1, s2, s3 = trajectory(state, cfg, 3, nonlinear=zero_nl)
        assert phi_hat(s2)[1] == pytest.approx(-1j * phi_hat(state)[1], abs=1e-15)
        assert phi_hat(s3)[1] == pytest.approx(-1j * phi_hat(s1)[1], abs=1e-15)

    def test_circle_curvature_constant_over_1000_steps(self):
        state, _ = catalog_state("circle", 64)
        cfg = SchemeConfig(scheme="cn", dt=1e-3)
        final = integrate(state, cfg, 1.0)
        # extraction junk (~1e-14 per mode) stays put; curvature amplifies
        # it by m, so the pointwise bound is a few times 1e-12
        assert np.max(np.abs(phi_hat(final)[1:])) <= 1e-12
        assert np.max(np.abs(observe_states([final]).k[0] - 1.0)) <= 1e-11


class TestCnadb:
    def test_zero_gamma_reduces_to_euler_mean(self):
        state, _ = catalog_state("circle", 64)
        cfg = SchemeConfig(scheme="cnadb", dt=1e-3)
        new = first_step(state, cfg)
        assert np.mean(new.phi) - np.mean(state.phi) == pytest.approx(
            5e-4, rel=1e-10
        )

    def test_is_average_of_adb_and_cn_inits(self, rng):
        phi = band_limited_field(64, 10, rng, 0.05)
        state = ThetaLState(phi=phi, length=4.8)
        dt = 5e-4
        avg = first_step(state, SchemeConfig(scheme="cnadb", dt=dt))
        a = first_step(state, SchemeConfig(scheme="adb", dt=dt))
        c = first_step(state, SchemeConfig(scheme="cn", dt=dt))
        mean = 0.5 * (a.phi + c.phi)
        assert np.max(np.abs(avg.phi - mean)) <= 1e-13

    def test_vanishing_dt_is_identity(self):
        # residual is dt * |phi_t|, and |phi_t| ~ 1e2 for this ellipse
        state, _ = catalog_state("ellipse", 64, a=1.0, b=0.5)
        cfg = SchemeConfig(scheme="cnadb", dt=1e-12)
        new = first_step(state, cfg)
        assert np.max(np.abs(new.phi - state.phi)) <= 1e-9

    def test_memory_feeds_cn_steps(self):
        state, _ = catalog_state("ellipse", 64, a=1.0, b=0.5)
        cfg = SchemeConfig(scheme="cnadb", dt=1e-4)
        start, rule = step_rules(cfg, state.n, state.length)
        # the history is phi one level back, not NL, and the steps are cn's
        assert start.b is None and rule.b is not None and rule.d is None
        _, cn_rule = step_rules(SchemeConfig(scheme="cn", dt=1e-4), state.n, state.length)
        assert np.array_equal(rule.b, cn_rule.b) and np.array_equal(rule.c, cn_rule.c)
        states = trajectory(state, cfg, 2)
        assert len(states) == 3 and states[-1].time == 2 * 1e-4


class TestIntegrate:
    def test_zero_steps_returns_initial(self):
        state, _ = catalog_state("circle", 32)
        cfg = SchemeConfig(scheme="cnadb", dt=1e-3)
        assert integrate(state, cfg, 0.0) is state

    def test_non_commensurate_time_rejected(self):
        state, _ = catalog_state("circle", 32)
        cfg = SchemeConfig(scheme="cnadb", dt=1e-3)
        with pytest.raises(NonCommensurateTime):
            integrate(state, cfg, 3.00000049)

    def test_time_is_exact_multiple(self):
        state, _ = catalog_state("circle", 32)
        cfg = SchemeConfig(scheme="adb", dt=1e-3)
        final = integrate(state, cfg, 0.25)
        assert final.time == 250 * 1e-3

    def test_observer_strides_and_forced_final(self):
        state, _ = catalog_state("circle", 32)
        cfg = SchemeConfig(scheme="cn", dt=1e-3)
        seen, seen_np = [], []
        integrate(state, cfg, 0.01, observers=[(3, lambda j, s: seen.append(j)),
                                               (np.int64(3), lambda j, s: seen_np.append(j))])
        assert seen == seen_np == [0, 3, 6, 9, 10]

    @pytest.mark.parametrize("strides, calls", [
        ((3, 4), ["A0", "B0", "A3", "B4", "A6", "B8", "A9", "A10", "B10"]),
        ((20,), ["A0", "A10"]),
    ], ids=["strides-3-and-4", "stride-past-the-end"])
    def test_observers_of_different_strides_fire_in_step_order(self, strides, calls):
        # the next due step is the nearest over all strides, and a stride
        # longer than the run fires at step 0 and the final step only
        state, _ = catalog_state("circle", 32)
        seen = []
        observers = [(stride, lambda j, phi, name=name: seen.append(f"{name}{j}"))
                     for name, stride in zip("AB", strides)]
        integrate(state, SchemeConfig(scheme="cn", dt=1e-3), 0.01, observers=observers)
        assert seen == calls

    def test_integrate_reads_no_anchor(self):
        # the stepper reads only phi, length and time; the returned state
        # carries the rest of ``initial`` over unread
        attrs = {node.attr for node in ast.walk(ast.parse(inspect.getsource(integrate)))
                 if isinstance(node, ast.Attribute)}
        assert "anchor" not in attrs and {"phi", "length", "time"} <= attrs

    def test_returns_the_state_observed_at_the_final_step(self):
        state, _ = catalog_state("circle", 32)
        seen = {}
        final = integrate(state, SchemeConfig(scheme="cn", dt=1e-3), 0.01,
                          observers=[(3, lambda j, phi: seen.setdefault(j, phi.copy()))])
        assert np.array_equal(final.phi, seen[10])
        assert (final.length, final.time, final.anchor) == (state.length, state.time + 10 * 1e-3,
                                                            state.anchor)

    def test_observed_run_builds_only_the_final_state(self, monkeypatch):
        # observers get grid rows: even a stride-1 observer makes no state
        state, _ = catalog_state("ellipse", 32, a=1.0, b=0.8)
        built, post_init = [], ThetaLState.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ThetaLState, "__post_init__", counted)
        seen = []
        final = integrate(state, SchemeConfig(scheme="cnadb", dt=1e-4), 2e-3,
                          observers=[(1, lambda j, phi: seen.append(j))])
        assert seen == list(range(21))
        assert len(built) == 1 and built[0] is final

    @pytest.mark.parametrize("stride", [0, -1, 2.5])
    def test_bad_observer_stride_rejected_before_step_0(self, stride):
        # observers fire on whole multiples of their stride: any other
        # stride never fires again, so the final phi is never computed
        state, _ = catalog_state("ellipse", 64, a=1.0, b=0.5)
        cfg = SchemeConfig(scheme="cnadb", dt=1e-3)
        seen = []
        with pytest.raises(ValidationError, match=f"stride must be an integer >= 1, got {stride}"):
            integrate(state, cfg, 0.05, observers=[(stride, lambda j, s: seen.append(j))])
        assert seen == []

    def test_blowup_guard(self, monkeypatch):
        monkeypatch.setattr(schemes, "BLOWUP_LIMIT", 1e-6)
        state, _ = catalog_state("circle", 32)
        cfg = SchemeConfig(scheme="adb", dt=1e-3)
        with pytest.raises(BlowUp):
            integrate(state, cfg, 0.1)

    @given(st.sampled_from([8, 64, 512, 2048]), st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1e3), st.booleans())
    def test_spectral_bound_majorizes_max_phi(self, n, seed, scale, aligned):
        # aligned: equal real coefficients peak at alpha = 0, where max|phi|
        # = N a against the bound's (N + 2) a
        rng = np.random.default_rng(seed)
        if aligned:
            level = np.full(n // 2 + 1, scale, dtype=np.complex128)
        else:
            level = scale * (rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1))
        peak = np.max(np.abs(np.fft.irfft(level, n, norm="forward")))
        assert schemes._spectral_bound_sq(level) >= peak**2

    @pytest.mark.parametrize("scheme", schemes.SCHEMES)
    def test_guard_step_exact_under_growth(self, rng, scheme):
        # NL = 30 phi grows phi about 35% a step: the spectral bound passes
        # half the limit a few steps before max|phi| passes the limit
        n = 32
        state = ThetaLState(phi=band_limited_field(n, 5, rng, 0.1),
                            length=2 * np.pi)
        cfg = SchemeConfig(scheme=scheme, dt=1e-2)

        def grow(phi_hat, length, filter, *work):
            return 30.0 * np.fft.irfft(phi_hat, n, norm="forward")

        expected, near = exact_guard_run(state, cfg, 200, grow)
        assert expected is not None and near >= 2
        assert guarded_run(state, cfg, 200, grow) == expected

    def test_guard_step_exact_on_nan(self):
        # every filter, in place on the NL spectrum, passes the nan on to the guard
        state, _ = catalog_state("ellipse", 32, a=1.0, b=0.8)

        def poisoned_at_5(calls):
            def term(*args):
                calls.append(None)
                nl = nonlinear_term(*args)
                return nl * np.nan if len(calls) == 5 else nl
            return term

        for filter in FILTERS:
            cfg = SchemeConfig(scheme="cnadb", dt=1e-4, filter=filter)
            expected, _ = exact_guard_run(state, cfg, 20, poisoned_at_5([]))
            assert expected[0] == 5 and "max|phi| = nan" in expected[1]
            assert guarded_run(state, cfg, 20, poisoned_at_5([])) == expected

    @pytest.mark.parametrize("scheme", schemes.SCHEMES)
    def test_guard_step_exact_with_small_limit(self, monkeypatch, scheme):
        # the under-resolved ellipse's max|phi| creeps from 2.06 past 2.3
        monkeypatch.setattr(schemes, "BLOWUP_LIMIT", 2.3)
        state, _ = catalog_state("ellipse", 32, a=1.0, b=0.5)
        cfg = SchemeConfig(scheme=scheme, dt=1e-3)
        expected, _ = exact_guard_run(state, cfg, 1000)
        assert expected is not None and expected[0] > 20
        assert guarded_run(state, cfg, 1000) == expected

    def test_observed_states_bitwise_equal_across_strides(self):
        state, _ = catalog_state("ellipse", 64, a=1.0, b=0.6)
        cfg = SchemeConfig(scheme="cnadb", dt=1e-4)
        every, sevenths = {}, {}
        t_final = 30 * cfg.dt
        for stride, seen in ((1, every), (7, sevenths)):
            integrate(state, cfg, t_final,
                      observers=[(stride, state_observer(state, cfg.dt, seen.setdefault))])
        unobserved = integrate(state, cfg, t_final)
        assert sorted(sevenths) == [0, 7, 14, 21, 28, 30]
        for j, level in reference_levels(state, cfg, 30):
            phi = np.fft.irfft(level, state.n, norm="forward")
            assert np.array_equal(every[j].phi, phi)
        for j, seen in sevenths.items():
            assert seen.time == every[j].time
            assert np.array_equal(seen.phi, every[j].phi)
        assert unobserved.time == every[30].time
        assert np.array_equal(unobserved.phi, every[30].phi)

    @pytest.mark.parametrize("scheme", schemes.SCHEMES)
    def test_unobserved_step_takes_two_real_transforms(self, monkeypatch, scheme):
        counts, _ = count_transforms(monkeypatch)
        state, _ = catalog_state("ellipse", 32, a=1.0, b=0.8)
        cfg = SchemeConfig(scheme=scheme, dt=1e-4)

        def transforms(steps, observers=()):
            before = dict(counts)
            integrate(state, cfg, steps * cfg.dt, observers=observers)
            return {name: counts[name] - before[name] for name in counts}

        # per step the irfft of D phi and the rfft of NL; phi's own rfft at
        # the start and irfft at the final step; never numpy's own
        no_numpy = dict.fromkeys(NUMPY_TRANSFORMS, 0)
        assert transforms(10) == dict(rfft=11, irfft=11, **no_numpy)
        assert transforms(20) == dict(rfft=21, irfft=21, **no_numpy)
        # an observer due at step 5 adds the irfft of phi there
        quiet = [(5, lambda j, s: None)]
        assert transforms(10, quiet) == dict(rfft=11, irfft=12, **no_numpy)

    def test_linear_hook_exact_at_final_time(self, rng):
        state = ThetaLState(
            phi=band_limited_field(64, 6, rng, 0.1), length=5.1
        )
        cfg = SchemeConfig(scheme="adb", dt=2e-3)
        final = integrate(state, cfg, 1.0, nonlinear=zero_nl)
        assert np.max(np.abs(final.phi - exact_linear_phi(state, 1.0))) <= 1e-12

    def test_ellipse_e1_m3_drift_table_row(self):
        # reference conservation run: ellipse with max|k|^2 = 4 at N=512,
        # dt = 5e-4 holds the relative energy drift at the percent level
        state, _ = catalog_state("ellipse", 512, a=1.0, b=np.sqrt(2) / 2)
        cfg = SchemeConfig(scheme="cnadb", dt=5e-4)
        triples = [diagnostics.conserved_quantities(s)
                   for s in observed_states(state, cfg, 2.0, 40)]
        m3_0 = triples[0].m3
        assert max(abs(diagnostics.m3_drift(t.m3, m3_0)) for t in triples) <= 0.01


def recorded_levels(monkeypatch):
    """Copies of the level each ``schemes.init_step`` and ``schemes.step`` call returns."""
    levels = []
    for name in ("init_step", "step"):
        original = getattr(schemes, name)

        def recorded(*args, _original=original):
            level = _original(*args)
            levels.append(level.copy())
            return level

        monkeypatch.setattr(schemes, name, recorded)
    return levels


class TestWorkspace:
    """integrate writes every step into one workspace per trajectory; the
    plain allocating loop (``oracles.reference_levels``) is its reference."""

    @pytest.mark.parametrize("stride", [None, 3])
    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("filter", FILTERS)
    @pytest.mark.parametrize("scheme", schemes.SCHEMES)
    def test_levels_bitwise_equal_to_plain_loop(self, monkeypatch, scheme, filter, n, stride):
        state, _ = catalog_state("ellipse", n, a=1.0, b=0.5)
        cfg = SchemeConfig(scheme=scheme, dt=1e-4, filter=filter)
        levels = recorded_levels(monkeypatch)
        observers = [] if stride is None else [(stride, lambda j, s: None)]
        final = integrate(state, cfg, 40 * cfg.dt, observers)
        reference = [level for _, level in reference_levels(state, cfg, 40)]
        assert len(levels) == len(reference) == 40
        for j, (level, expected) in enumerate(zip(levels, reference), 1):
            assert np.array_equal(level, expected), f"step {j}"
        assert np.array_equal(final.phi, np.fft.irfft(reference[-1], n, norm="forward"))

    def test_criterion_4_adb_blowup_unchanged(self):
        # ADB's blow-up step moves with roundoff: the workspace must blow up at
        # the first step where the plain loop's max|phi| leaves the limit
        state, _ = catalog_state("ellipse", 512, a=1.0, b=0.5)
        cfg = SchemeConfig(scheme="adb", dt=1e-4)
        for j, level in reference_levels(state, cfg, 5000):
            peak = np.max(np.abs(np.fft.irfft(level, 512, norm="forward")))
            if not peak <= schemes.BLOWUP_LIMIT:
                break
        assert j < 5000  # the plain loop blew up before t = 0.5
        with pytest.raises(BlowUp) as err:
            integrate(state, cfg, 0.5)
        assert err.value.step == j
        assert str(err.value) == (
            f"blow-up at step {j} (t={j * cfg.dt:.6g}): max|phi| = {peak:.3e} exceeds 1.000e+03")

    @pytest.mark.parametrize("scheme", schemes.SCHEMES)
    def test_states_keep_their_phi_after_later_steps(self, scheme):
        # observers see the workspace's row, which later steps overwrite; the
        # returned state owns its phi, and step 0's row is the initial phi
        state, _ = catalog_state("ellipse", 64, a=1.0, b=0.5)
        cfg = SchemeConfig(scheme=scheme, dt=1e-4, filter="krasny")
        seen = []
        final = integrate(state, cfg, 30 * cfg.dt,
                          observers=[(1, lambda j, phi: seen.append((phi, phi.copy())))])
        kept = final.phi.copy()
        integrate(final, cfg, final.time + 10 * cfg.dt)
        assert len(seen) == 31 and np.array_equal(final.phi, kept)
        assert seen[0][0] is state.phi and np.array_equal(seen[-1][1], kept)
        assert not np.shares_memory(final.phi, seen[-1][0])

    def test_rule_without_terms_rejected(self):
        with pytest.raises(ValidationError):
            schemes.StepRule()

    @staticmethod
    def step_peak(scheme, filter):
        """tracemalloc's peak over steps 1 to 201 of an ellipse at N=512."""
        state, _ = catalog_state("ellipse", 512, a=1.0, b=0.5)
        cfg = SchemeConfig(scheme=scheme, dt=1e-4, filter=filter)
        integrate(state, cfg, 5 * cfg.dt)  # builds the cached symbols and profiles
        calls, peaks = [0], []

        def traced(*args):
            calls[0] += 1
            if calls[0] == 1:
                tracemalloc.start()
            elif calls[0] == 201:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return nonlinear_term(*args)

        try:
            integrate(state, cfg, 201 * cfg.dt, nonlinear=traced)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1
        return peaks[0]

    @pytest.mark.parametrize("scheme, filter",
                             [("cnadb", "none"), ("adb", "krasny"), ("cn", "dpr")])
    def test_unobserved_steps_allocate_no_array(self, scheme, filter):
        # tracing starts in the term of step 1, after the workspace is built,
        # and the peak is read in the term of step 201.  Measured at N=512:
        # 1.4 KiB for every scheme and filter (the filter's profile, |z| and
        # mask are resolved with the workspace); 28.9 KiB with fresh arrays
        # per step.  One more half spectrum or node row per step is 4 KiB
        peak = self.step_peak(scheme, filter)
        assert peak <= 4 * 2**10
        if filter != "none":
            assert peak <= self.step_peak(scheme, "none")

    @pytest.mark.parametrize("filter", FILTERS)
    def test_filter_resolved_once_and_unfiltered_steps_call_none(self, monkeypatch, filter):
        # one resolution per trajectory; the filter is applied twice a step,
        # in the term and on the NL spectrum, and "none" resolves to no call
        resolved, applied = [], [0]

        def resolve(mode, n):
            apply = mode_filter(mode, n)
            resolved.append(mode)

            def counted(*args):
                applied[0] += 1
                return apply(*args)

            return None if apply is None else counted

        monkeypatch.setattr(schemes, "mode_filter", resolve)
        state, _ = catalog_state("ellipse", 64, a=1.0, b=0.5)
        integrate(state, SchemeConfig(scheme="cnadb", dt=1e-4, filter=filter), 10e-4)
        assert resolved == [filter]
        assert applied[0] == (0 if filter == "none" else 2 * 10)

    def test_unknown_filter_name_never_resolves(self):
        # the name is checked in SchemeConfig alone, a config's too; any other
        # name is no key of mode_filter's table, so it raises rather than
        # resolving a filter
        for name in ("bogus", "both"):
            with pytest.raises(ValidationError, match=re.escape(str(FILTERS))):
                SchemeConfig(scheme="cnadb", dt=1e-4, filter=name)
            with pytest.raises(ValidationError, match=re.escape(str(FILTERS))):
                harness.parse_config(f"shape = circle\nn = 32\ndt = 1e-2\nt_final = 0.1\n"
                                     f"filter = {name}\n")
            with pytest.raises(KeyError):
                mode_filter(name, 64)


class TestSchemeProperties:
    def test_reality_preserved(self, rng):
        state, _ = catalog_state("ellipse", 128, a=1.0, b=0.5)
        for scheme in schemes.SCHEMES:
            cfg = SchemeConfig(scheme=scheme, dt=2e-4)
            final = integrate(state, cfg, 0.05)
            spec = np.fft.fft(final.phi) / 128
            sym_dev = np.max(np.abs(spec[1:64] - np.conj(spec[:64:-1])))
            assert sym_dev <= 1e-11

    def test_shape_invariance_of_circle(self):
        for scheme in schemes.SCHEMES:
            state, _ = catalog_state("circle", 64)
            cfg = SchemeConfig(scheme=scheme, dt=1e-3)
            final = integrate(state, cfg, 1.0)
            assert np.max(np.abs(phi_hat(final)[1:])) <= 1e-12

    @pytest.mark.parametrize("scheme", schemes.SCHEMES)
    def test_read_only_levels_accepted_and_unchanged(self, scheme):
        # the step arithmetic runs in place: it must write only its workspace
        # arrays or arrays it made, never a level the stepper keeps as history
        state, _ = catalog_state("ellipse", 64, a=1.0, b=0.5)
        start, rule = step_rules(SchemeConfig(scheme=scheme, dt=1e-3), state.n, state.length)
        level = half(state)
        nl_hat = np.fft.rfft(nonlinear_term(level, state.length), norm="forward")
        levels = [level, nl_hat, 0.5 * level, 0.5 * nl_hat]
        kept = [x.copy() for x in levels]
        for x in levels:
            x.setflags(write=False)
        spectra = [np.empty_like(level) for _ in range(3)]
        rows = [np.empty(state.n) for _ in range(2)]
        for filter in FILTERS:
            nonlinear_term(level, state.length, mode_filter(filter, state.n))
            nonlinear_term(level, state.length, mode_filter(filter, state.n), spectra[0], *rows)
        schemes.init_step(start, level, nl_hat)
        schemes.step(rule, *levels)
        schemes.init_step(start, level, nl_hat, *spectra[1:])
        schemes.step(rule, *levels, *spectra[1:])
        for x, copy in zip(levels, kept):
            assert np.array_equal(x, copy)

    def test_conjugate_pair_stepping(self):
        # stepping the conjugate-symmetric data keeps conjugate symmetry
        # exactly: evolving mode -m equals the conjugate of evolving mode m
        n = 64
        state = single_mode_state(n, 5, amplitude=0.1, length=4.0)
        cfg = SchemeConfig(scheme="adb", dt=1e-4)
        new = first_step(state, cfg)
        spec = np.fft.fft(new.phi) / n
        assert spec[n - 5] == pytest.approx(np.conj(spec[5]), abs=1e-16)

    def test_temporal_order_all_schemes(self):
        # Richardson triple in the temporally resolved regime (gamma < 1 on
        # every amplitude-carrying mode): a gentle perturbed circle
        alpha = grid_nodes(64)
        phi = (np.pi / 2 + 0.08 * np.cos(2 * alpha) + 0.05 * np.sin(3 * alpha)
               + 0.02 * np.cos(5 * alpha))
        results = {}
        for scheme in schemes.SCHEMES:
            finals = []
            for dt in (4e-4, 2e-4, 1e-4):
                state = ThetaLState(phi=phi, length=2 * np.pi)
                cfg = SchemeConfig(scheme=scheme, dt=dt)
                finals.append(integrate(state, cfg, 0.2))
            d1 = diagnostics.state_difference_norm(finals[0], finals[1])
            d2 = diagnostics.state_difference_norm(finals[1], finals[2])
            results[scheme] = diagnostics.convergence_order(d1, d2)
        for scheme, order in results.items():
            assert 1.5 <= order <= 2.6, f"{scheme}: order {order}"
