import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from airyflow import geometry, harness, spectral
from airyflow.errors import (
    ClosureViolation,
    InvalidParameter,
    NoConvergence,
    NonFiniteField,
    NotRegular,
    UnknownShape,
    WindingError,
)
from airyflow.geometry import (
    ThetaLState,
    catalog_curve,
    extract_theta_l,
    resample_equal_arclength,
)
from airyflow.spectral import grid_nodes, spectral_derivative

from conftest import catalog_state, count_transforms, fed_observer, observe_states
from oracles import linear_start_resample, point_curvature, two_row_resample

# perimeter of ellipse(1, 0.5) by adaptive quadrature of sqrt(sin^2 + 0.25 cos^2);
# scipy.integrate.quad reports an error estimate of 5.4e-14
ELLIPSE_PERIMETER = 4.844224110273837


#: the resampling tests' shapes: smooth, thin, dimpled, three-lobed and strongly perturbed
RESAMPLE_SHAPES = [
    ("ellipse", dict(a=1.0, b=0.5)),
    ("ellipse", dict(a=1.0, b=0.05)),
    ("cardioid", {}),
    ("pc3", {}),
    ("perturbed_circle", dict(r0=1.0, delta0=0.9, m=5)),
]


def ellipse_curvature(t, a=1.0, b=0.5):
    return a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5


def pc3_curvature(alpha):
    # curvature of the radial graph r = 1 + 0.4 cos(3a):
    # k = (r^2 + 2 r_a^2 - r r_aa) / (r^2 + r_a^2)^(3/2)
    r = 1.0 + 0.4 * np.cos(3 * alpha)
    r_a = -1.2 * np.sin(3 * alpha)
    r_aa = -3.6 * np.cos(3 * alpha)
    return (r**2 + 2 * r_a**2 - r * r_aa) / np.sqrt(r**2 + r_a**2) ** 3


class TestCatalog:
    def test_ellipse_max_squared_curvature(self):
        state, _ = catalog_state("ellipse", 256, a=1.0, b=0.5)
        k = observe_states([state]).k[0]
        assert np.max(np.abs(k)) ** 2 == pytest.approx(16.0, abs=1e-8)

    def test_circle_regularity_and_curvature(self):
        fx, fy = catalog_curve("circle", r=2.0)
        alpha = grid_nodes(64)
        x_a = spectral_derivative(fx(alpha))
        y_a = spectral_derivative(fy(alpha))
        assert np.allclose(np.hypot(x_a, y_a), 2.0, atol=1e-12)
        state, _ = catalog_state("circle", 64, r=2.0)
        assert np.allclose(observe_states([state]).k[0], 0.5, atol=1e-12)

    def test_perturbed_circle_matches_radial_formula(self):
        fx, fy = catalog_curve("perturbed_circle", r0=1.0, delta0=0.4, m=3)
        alpha = grid_nodes(512)
        r = 1.0 + 0.4 * np.cos(3 * alpha)
        assert np.max(np.abs(fx(alpha) - r * np.cos(alpha))) < 1e-15
        assert np.max(np.abs(fy(alpha) - r * np.sin(alpha))) < 1e-15

    def test_pc3_is_preset_perturbed_circle(self):
        alpha = grid_nodes(128)
        ax, ay = (f(alpha) for f in catalog_curve("pc3"))
        bx, by = (f(alpha) for f in catalog_curve("perturbed_circle", r0=1.0, delta0=0.4, m=3))
        assert np.array_equal(ax, bx) and np.array_equal(ay, by)

    def test_unknown_shape(self):
        with pytest.raises(UnknownShape):
            catalog_curve("heart")

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            catalog_curve("ellipse", a=1.0, b=-0.5)
        with pytest.raises(InvalidParameter):
            catalog_curve("perturbed_circle", r0=1.0, delta0=1.5, m=2)
        with pytest.raises(InvalidParameter,
                           match=r"^shape 'cardioid' does not take parameters \['a'\]$"):
            catalog_curve("cardioid", a=1.0)
        with pytest.raises(InvalidParameter, match="base radius must be positive, got 0"):
            catalog_curve("perturbed_circle", r0=0.0, delta0=0.0, m=2)
        with pytest.raises(InvalidParameter, match="positive integer, got 2.5"):
            catalog_curve("perturbed_circle", r0=1.0, delta0=0.1, m=2.5)


class TestResample:
    def test_circle_is_fixed_point(self):
        curve = catalog_curve("circle")
        points, length = resample_equal_arclength(curve, 64)
        alpha = grid_nodes(64)
        assert abs(length - 2 * np.pi) <= 1e-12
        assert np.max(np.abs(points[:, 0] - np.cos(alpha))) < 1e-12
        assert np.max(np.abs(points[:, 1] - np.sin(alpha))) < 1e-12

    def test_newton_without_iterations_raises_no_convergence(self, monkeypatch):
        monkeypatch.setattr(geometry, "_NEWTON_MAX_ITER", 0)
        with pytest.raises(NoConvergence) as err:
            resample_equal_arclength(catalog_curve("circle"), 64)
        assert str(err.value) == (
            f"arc-length inversion did not reach {1e-12 * 2 * np.pi:.3e} in 0 iterations")

    def test_reparametrized_circle(self):
        fx = lambda t: np.cos(t + 0.3 * np.sin(t))
        fy = lambda t: np.sin(t + 0.3 * np.sin(t))
        points, length = resample_equal_arclength((fx, fy), 128)
        assert abs(length - 2 * np.pi) <= 1e-10
        radii = np.hypot(points[:, 0], points[:, 1])
        assert np.max(np.abs(radii - 1.0)) <= 1e-10
        # uniform spacing on the unit circle
        chords = np.hypot(np.diff(points[:, 0], append=points[0, 0]),
                          np.diff(points[:, 1], append=points[0, 1]))
        assert np.max(np.abs(chords - chords[0])) <= 1e-10

    def test_ellipse_perimeter_matches_quadrature_oracle(self):
        val, _ = quad(lambda t: np.hypot(np.sin(t), 0.5 * np.cos(t)), 0.0, 2 * np.pi,
                      epsabs=1e-13, epsrel=1e-13, limit=200)
        assert val == pytest.approx(ELLIPSE_PERIMETER, abs=1e-12)
        curve = catalog_curve("ellipse", a=1.0, b=0.5)
        _, length = resample_equal_arclength(curve, 256)
        assert length == pytest.approx(ELLIPSE_PERIMETER, abs=1e-10)

    def test_equal_arclength_certificate(self):
        # independent oracle: adaptive quadrature of s_alpha between the
        # parameter values recovered from consecutive resampled points
        curve = catalog_curve("ellipse", a=1.0, b=0.5)
        points, length = resample_equal_arclength(curve, 256)
        t = np.unwrap(np.arctan2(points[:, 1] / 0.5, points[:, 0]))
        t = np.append(t, t[0] + 2 * np.pi)
        gaps = np.array([
            quad(lambda u: np.hypot(np.sin(u), 0.5 * np.cos(u)), t[i], t[i + 1],
                 epsabs=1e-14, limit=100)[0]
            for i in range(256)
        ])
        assert np.max(np.abs(gaps - length / 256)) / (length / 256) <= 1e-8

    def test_cardioid_equal_arclength_certificate(self):
        # the catalog cardioid is r = 1 + 0.7 sin t in polar form, so the
        # parameter of a point is its polar angle
        n = 1024
        curve = catalog_curve("cardioid")
        points, length = resample_equal_arclength(curve, n)
        t = np.unwrap(np.arctan2(points[:, 1], points[:, 0]))
        t = np.append(t, t[0] + 2 * np.pi)
        speed = lambda u: np.hypot(-np.sin(u) + 0.7 * np.cos(2 * u),
                                   np.cos(u) + 0.7 * np.sin(2 * u))
        gaps = np.array([
            quad(speed, t[i], t[i + 1], epsabs=1e-14, limit=100)[0] for i in range(n)
        ])
        assert np.max(np.abs(gaps - length / n)) / (length / n) <= 1e-8

    @pytest.mark.parametrize("n", [4096, 8192])
    def test_cardioid_peak_memory(self, n):
        # the interpolant holds a few rows of N per term, so the peak grows
        # like N: 0.82 MiB at N = 4096 and 1.63 MiB at N = 8192 (210*N and
        # 209*N bytes), with the grid's cached tables
        curve = catalog_curve("cardioid")
        tracemalloc.start()
        try:
            resample_equal_arclength(curve, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 288 * n

    @staticmethod
    def interpolant_calls(monkeypatch, curve, n):
        calls = 0
        interpolate = spectral.trig_interpolate

        def counted(values, beta):
            nonlocal calls
            calls += 1
            return interpolate(values, beta)

        monkeypatch.setattr(spectral, "trig_interpolate", counted)
        resample_equal_arclength(curve, n)
        return calls

    @pytest.mark.parametrize("n, calls", [(512, 2), (1024, 2), (2048, 1)])
    def test_cardioid_interpolant_calls(self, monkeypatch, n, calls):
        # one call per Newton iteration from the cubic Hermite start
        assert self.interpolant_calls(monkeypatch, catalog_curve("cardioid"), n) == calls

    def test_thin_ellipse_interpolant_calls(self, monkeypatch):
        curve = catalog_curve("ellipse", a=1.0, b=0.05)
        assert self.interpolant_calls(monkeypatch, curve, 8) <= 4

    @pytest.mark.parametrize("n", [8, 16, 64, 512, 4096])
    @pytest.mark.parametrize("shape, params", RESAMPLE_SHAPES)
    def test_matches_linear_start_reference(self, shape, params, n):
        curve = catalog_curve(shape, **params)
        points, length = resample_equal_arclength(curve, n)
        ref_points, ref_length = linear_start_resample(curve, n)
        assert length == ref_length
        assert np.max(np.abs(points - ref_points)) <= 1e-12

    @pytest.mark.parametrize("n", [8, 16, 64, 512, 2048, 4096])
    @pytest.mark.parametrize("shape, params", RESAMPLE_SHAPES)
    def test_matches_two_row_newton_bitwise(self, shape, params, n):
        # the interpolant's derivative is the slope row's interpolant up to
        # roundoff, and the final Newton step polishes that away
        curve = catalog_curve(shape, **params)
        points, length = resample_equal_arclength(curve, n)
        ref_points, ref_length = two_row_resample(curve, n)
        assert length == ref_length
        assert np.array_equal(points, ref_points)

    @pytest.mark.parametrize("n, calls", [(512, 2), (2048, 1)])
    def test_newton_transforms_one_row(self, monkeypatch, n, calls):
        # the setup's three derivative and antiderivative pairs, then per
        # Newton call one rfft of the arc length and one irfft per Taylor
        # term, from which the interpolant takes both its value and its slope
        _, shapes = count_transforms(monkeypatch)
        resample_equal_arclength(catalog_curve("cardioid"), n)
        half = n // 2 + 1
        setup = [("rfft", (2, n)), ("irfft", (2, half)), ("rfft", (n,)), ("irfft", (half,)),
                 ("rfft", (n,)), ("irfft", (half,))]
        newton = [("rfft", (n,))] + [("irfft", (half,))] * 22
        assert shapes == setup + newton * calls

    def test_newton_slope_drops_the_nyquist_mode(self, monkeypatch):
        # s_alpha's Nyquist coefficient here is -1.56, which the residual's
        # antiderivative zeroes; a slope that kept it never converged
        curve = catalog_curve("perturbed_circle", r0=1.0, delta0=0.5, m=8)
        alpha = grid_nodes(32)
        s_a = np.hypot(spectral_derivative(curve[0](alpha)), spectral_derivative(curve[1](alpha)))
        assert np.fft.rfft(s_a, norm="forward")[-1].real < -1.5
        assert self.interpolant_calls(monkeypatch, curve, 32) <= 6

    def test_degenerate_curve_rejected(self):
        curve = (lambda t: 0.0 * t, lambda t: 0.0 * t)
        with pytest.raises(NotRegular):
            resample_equal_arclength(curve, 64)

    @pytest.mark.parametrize("a", [np.nan, np.inf])
    def test_non_finite_curve_rejected(self, a):
        with pytest.raises(NotRegular, match="non-finite"):
            resample_equal_arclength(catalog_curve("ellipse", a=a), 64)


class TestThetaLState:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            ThetaLState(phi=np.zeros(24), length=2 * np.pi)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            ThetaLState(phi=np.zeros(4), length=2 * np.pi)

    def test_rejects_nan(self):
        values = np.zeros(16)
        values[3] = np.nan
        with pytest.raises(NonFiniteField):
            ThetaLState(phi=values, length=2 * np.pi)

    @pytest.mark.parametrize("fields", [
        dict(length=np.inf), dict(length=np.nan), dict(time=np.nan), dict(anchor=(np.nan, 0.0)),
        dict(anchor=(0.0, -np.inf))], ids=["length", "length-nan", "time", "anchor-x", "anchor-y"])
    def test_rejects_non_finite_geometry(self, fields):
        # a non-finite length or anchor would make observe return nan
        # invariants, radius and centroid without raising
        with pytest.raises(NonFiniteField):
            ThetaLState(phi=np.zeros(16), **{"length": 2 * np.pi, **fields})

    @pytest.mark.parametrize("anchor", [(), (1.0,), (1.0, 0.0, 5.0), (np.nan,),
                                        ((1.0, 2.0), (3.0, 4.0))],
                             ids=["empty", "one", "three", "one-nan", "nested"])
    def test_rejects_anchor_not_a_pair(self, anchor):
        # checked before finiteness: the curve would be anchored silently
        # wrong, or observe would fail with a bare TypeError
        with pytest.raises(ValueError, match=r"anchor must be an \(x, y\) pair"):
            ThetaLState(phi=np.zeros(16), length=2 * np.pi, anchor=anchor)

    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError, match="^curve length must be positive$"):
            ThetaLState(phi=np.zeros(16), length=0.0)

    def test_rejects_non_1d_phi(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ThetaLState(phi=np.zeros((2, 16)), length=2 * np.pi)

    def test_values_are_immutable(self):
        values = np.zeros(16)
        state = ThetaLState(phi=values, length=2 * np.pi)
        with pytest.raises(ValueError):
            state.phi[0] = 1.0
        values[0] = 1.0  # the state holds a copy
        assert state.phi[0] == 0.0


class TestExtract:
    def test_circle_gives_constant_phi(self):
        state, _ = catalog_state("circle", 64)
        assert np.max(np.abs(state.phi - np.pi / 2)) < 1e-12
        assert state.anchor == pytest.approx((1.0, 0.0), abs=1e-14)

    def test_clockwise_rejected(self):
        alpha = grid_nodes(64)
        points = np.column_stack([np.cos(-alpha), np.sin(-alpha)])
        with pytest.raises(WindingError):
            extract_theta_l(points, 2 * np.pi)

    def test_points_not_n_by_2_rejected(self):
        with pytest.raises(ValueError, match=r"^points must be an \(n, 2\) array$"):
            extract_theta_l(np.zeros((8, 3)), 2 * np.pi)

    def test_figure_eightish_rejected(self):
        alpha = grid_nodes(128)
        points = np.column_stack([np.sin(2 * alpha), np.sin(alpha)])
        with pytest.raises(WindingError):
            extract_theta_l(points, 8.0)

    def test_ellipse_curvature_extremes(self):
        state, _ = catalog_state("ellipse", 256, a=1.0, b=0.5)
        k = observe_states([state]).k[0]
        # resampling anchors node 0 at (1, 0), the max-curvature point, and
        # symmetry puts node N/4 at (0, b), the min-curvature point
        assert k[0] == pytest.approx(4.0, abs=1e-8)
        assert k[64] == pytest.approx(0.5, abs=1e-8)
        assert np.max(k) == pytest.approx(4.0, abs=1e-8)
        assert np.min(k) == pytest.approx(0.5, abs=1e-8)

    def test_turning_number_mean_derivative(self):
        for shape, kw in (("ellipse", dict(a=1.0, b=0.5)), ("cardioid", {})):
            state, _ = catalog_state(shape, 256, **kw)
            phi_a = spectral_derivative(state.phi)
            assert abs(np.mean(phi_a)) < 1e-13


class TestReconstruct:
    def test_constant_phi_gives_circle(self):
        state = ThetaLState(
            phi=np.full(64, np.pi / 2), length=2 * np.pi, anchor=(1.0, 0.0)
        )
        points = observe_states([state]).points[0]
        alpha = grid_nodes(64)
        assert np.max(np.abs(points[:, 0] - np.cos(alpha))) <= 1e-12
        assert np.max(np.abs(points[:, 1] - np.sin(alpha))) <= 1e-12

    def test_round_trip_on_catalog_shapes(self):
        # n per shape: the equal-arc-length reparametrization is analytic but
        # not band-limited, so truncation sets the floor (pc3 decays slowest)
        for shape, kw, n in (
            ("ellipse", dict(a=1.0, b=0.5), 256),
            ("pc3", {}, 1024),
            ("cardioid", {}, 512),
        ):
            state, points = catalog_state(shape, n, **kw)
            again = observe_states([state]).points[0]
            assert np.max(np.abs(again - points)) <= 1e-10

    def test_rotated_tangent_rotates_curve(self):
        state = ThetaLState(
            phi=np.full(64, np.pi / 2 + 0.5), length=2 * np.pi, anchor=(1.0, 0.0)
        )
        points = observe_states([state]).points[0]
        # still a closed unit circle, rotated about the anchor construction
        radii = np.hypot(points[:, 0] - np.mean(points[:, 0]),
                         points[:, 1] - np.mean(points[:, 1]))
        assert np.max(np.abs(radii - 1.0)) <= 1e-12

    def test_closure_violation(self):
        # theta = alpha + pi/2 + 0.3 cos(alpha) has the mean tangent
        # (-J_1(0.3), 0): the curve is measured, still periodic, and a run refuses it
        alpha = grid_nodes(64)
        state = ThetaLState(
            phi=np.pi / 2 + 0.3 * np.cos(alpha), length=2 * np.pi
        )
        obs = observe_states([state])
        assert obs.closure[0] == pytest.approx(0.1483, abs=1e-4)
        assert obs.points.shape == (1, 64, 2)
        with pytest.raises(ClosureViolation) as err:
            fed_observer([state], harness.RunConfig.closure_tol).flush()
        assert err.value.defect == obs.closure[0]


class TestCurvature:
    def test_circle_radius_r(self):
        for r in (0.5, 1.0, 3.0):
            state, _ = catalog_state("circle", 64, r=r)
            assert np.allclose(observe_states([state]).k[0], 1.0 / r, atol=1e-12)

    def test_pc3_matches_closed_form(self):
        # 1024 nodes: the dimpled profile needs ~768 modes to push the
        # tangent-angle truncation below the 1e-8 comparison floor
        state, points = catalog_state("pc3", 1024)
        # the radial graph lets each node recover its polar angle exactly
        beta = np.arctan2(points[:, 1], points[:, 0])
        k = observe_states([state]).k[0]
        assert np.max(np.abs(k - pc3_curvature(beta))) <= 1e-8

    def test_consistency_with_point_formula(self):
        for shape, kw, n in (
            ("ellipse", dict(a=1.0, b=0.5), 512),
            ("pc3", {}, 1024),
            ("cardioid", {}, 1024),
        ):
            state, _ = catalog_state(shape, n, **kw)
            obs = observe_states([state])
            assert np.max(np.abs(point_curvature(obs.points[0]) - obs.k[0])) <= 1e-8


class TestShapeStatistics:
    def test_area_rotation_invariance(self):
        # rotating the curve turns its tangent angle and its anchor
        state, _ = catalog_state("ellipse", 128, a=1.0, b=0.5)
        c, s = np.cos(0.7), np.sin(0.7)
        x, y = state.anchor
        rotated = ThetaLState(phi=state.phi + 0.7, length=state.length,
                              anchor=(c * x - s * y, s * x + c * y))
        area, area_rotated = (np.pi * observe_states([st]).radius[0] ** 2
                              for st in (state, rotated))
        assert abs(area_rotated - area) <= 1e-12

    def test_centroid_of_centered_shapes(self):
        # the cardioid is not origin-centered; test the shapes that are
        for shape, kw in (("circle", {}), ("ellipse", dict(a=1.0, b=0.5)), ("pc3", {})):
            _, points = catalog_state(shape, 256, **kw)
            cx, cy = np.mean(points, axis=0)
            assert abs(cx) < 1e-10 and abs(cy) < 1e-10


class TestReconstructCurve:
    def test_circle_starts_at_the_anchor_and_closes(self):
        # theta = alpha with L = 2 pi r: the circle of radius r whose tangent
        # at the anchor is (1, 0), so centred r above it
        r, anchor, n = 1.5, (0.25, -2.0), 64
        alpha = grid_nodes(n)
        tangent_hat = spectral.rfft(r * np.stack((np.cos(alpha), np.sin(alpha)))[:, None])
        points = geometry.reconstruct_curve(anchor, tangent_hat)
        assert points.shape == (1, n, 2)
        x, y = points[0].T
        assert (x[0], y[0]) == anchor
        assert np.max(np.abs(x - (anchor[0] + r * np.sin(alpha)))) <= 1e-14 * r
        assert np.max(np.abs(y - (anchor[1] + r - r * np.cos(alpha)))) <= 1e-14 * r
        # every chord, the closing one from the last node back to the anchor
        # included, is the circle's chord over 2 pi/N
        chords = np.hypot(*(np.roll(points[0], -1, axis=0) - points[0]).T)
        assert np.max(np.abs(chords - 2 * r * np.sin(np.pi / n))) <= 1e-14 * r

    def test_block_rows_bitwise_equal_to_one_curve_blocks(self):
        state, _ = catalog_state("ellipse", 128, a=1.0, b=0.5)
        alpha = grid_nodes(128)
        theta = alpha + state.phi + np.outer(np.arange(5) * 1e-2, np.cos(3 * alpha))
        tangent = state.length / (2 * np.pi) * np.stack((np.cos(theta), np.sin(theta)))
        tangent_hat = spectral.rfft(tangent)
        block = geometry.reconstruct_curve(state.anchor, tangent_hat)
        assert block.shape == (5, 128, 2)
        for i in range(5):
            one = geometry.reconstruct_curve(state.anchor, tangent_hat[:, i:i + 1].copy())
            assert block[i].tobytes() == one[0].tobytes(), i
