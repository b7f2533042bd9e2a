"""Test references: closed forms and independent formulas the suite compares
the package against.  Nothing in a run calls them.

* :func:`linear_oracle` -- the small-perturbation solution of a nearly
  circular curve;
* :func:`mkdv_rhs`, :func:`curve_motion_rhs` -- the mKdV curvature rate in
  its direct and velocity-decomposition forms;
* :func:`mkdv_residual` -- the centered time difference of the run's
  curvature (``diagnostics.observe`` of the three states) against :func:`mkdv_rhs`;
* :func:`point_curvature` -- curvature from point samples of a curve;
* :func:`complex_fft_curve` -- the curve by one complex FFT antiderivative
  of its tangent;
* :func:`reference_observation` -- every quantity
  ``diagnostics.observe`` reads off a state, in the full complex FFT;
* :func:`linear_start_resample` -- equal-arc-length resampling started by
  linear interpolation, one interpolant row per call;
* :func:`two_row_resample` -- equal-arc-length resampling whose Newton
  interpolates the arc length and its slope as two rows, the reference the
  one-row Newton must equal bit for bit;
* :func:`per_state_observe`, :func:`per_state_rows` -- ``diagnostics.observe``
  and the diagnostics rows one state at a time, the references the block
  pass and the run's rows must equal bit for bit;
* :func:`mirror` -- the state of the curve reflected in the x axis;
* :func:`reference_filter` -- a mode filter as its formula states it;
* :func:`reference_levels` -- ``schemes.integrate``'s loop in plain
  allocating steps, the reference its workspace levels must equal bit
  for bit;
* :func:`travelling_wave` -- an exact travelling wave of the nonlinear
  flow, the true solution a scheme's error is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from airyflow import diagnostics, schemes
from airyflow.errors import AiryflowError, NoConvergence
from airyflow.geometry import ThetaLState, _as_points
from airyflow.spectral import (
    KRASNY_THRESHOLD,
    _antiderivative_symbol,
    _derivative_symbol,
    _dpr_profile,
    grid_nodes,
    spectral_antiderivative,
    spectral_derivative,
    trig_interpolate,
)


class MissingSnapshots(AiryflowError):
    """A residual check needs exactly three consecutive states."""


@dataclass(frozen=True)
class LinearOracleState:
    """Closed-form small-perturbation solution for a nearly circular curve.

    A radius profile r = R + delta_r cos(m alpha) - delta_i sin(m alpha)
    rotates at rate tau = (m^3 - 1.5 m)/R^3 with R fixed, so
    (delta_r, delta_i) traces a circle of radius delta0.
    """

    r: float
    delta_r: float
    delta_i: float
    tau: float
    m: int
    delta0: float

    @property
    def delta_magnitude(self) -> float:
        return math.hypot(self.delta_r, self.delta_i)

    def radius(self, alpha) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=np.float64)
        return self.r + self.delta_r * np.cos(self.m * alpha) - self.delta_i * np.sin(
            self.m * alpha
        )

    def curvature(self, alpha) -> np.ndarray:
        """First-order curvature 1/R + ((m^2-1)/R^2)(delta_r cos - delta_i sin)."""
        alpha = np.asarray(alpha, dtype=np.float64)
        wave = self.delta_r * np.cos(self.m * alpha) - self.delta_i * np.sin(self.m * alpha)
        return 1.0 / self.r + (self.m**2 - 1.0) / self.r**2 * wave


def linear_oracle(r0: float, delta0: float, m: int, t: float) -> LinearOracleState:
    """Linearized perturbed-circle solution at time t.

    Initial data is delta_r(0) = delta0, delta_i(0) = 0; the perturbation
    rotates with angular rate tau = (m^3 - 1.5 m)/r0^3.
    """
    if not r0 > 0:
        raise ValueError("r0 must be positive")
    if int(m) != m or m < 2:
        raise ValueError("perturbation wavenumber m must be an integer >= 2")
    m = int(m)
    tau = (m**3 - 1.5 * m) / r0**3
    return LinearOracleState(
        r=r0,
        delta_r=delta0 * math.cos(tau * t),
        delta_i=delta0 * math.sin(tau * t),
        tau=tau,
        m=m,
        delta0=delta0,
    )


def mkdv_rhs(k: np.ndarray, length: float) -> np.ndarray:
    """Curvature rate k_sss + (3/2) k^2 k_s with spectral s-derivatives."""
    two_pi_over_l = 2.0 * np.pi / length
    k_s = two_pi_over_l * spectral_derivative(k)
    k_sss = two_pi_over_l**3 * spectral_derivative(spectral_derivative(spectral_derivative(k)))
    return k_sss + 1.5 * k**2 * k_s


def curve_motion_rhs(k: np.ndarray, length: float) -> np.ndarray:
    """Curvature rate -V_ss + k_s T - k^2 V from the velocity decomposition,
    with normal velocity V = -k_s and tangential velocity T = k^2/2."""
    two_pi_over_l = 2.0 * np.pi / length
    k_s = two_pi_over_l * spectral_derivative(k)
    v = -k_s
    v_ss = two_pi_over_l**2 * spectral_derivative(spectral_derivative(v))
    t = 0.5 * k**2
    return -v_ss + k_s * t - k**2 * v


def mkdv_residual(states) -> float:
    """Max-norm residual of the curvature evolution over a state triple.

    Takes three consecutive, equally spaced states from one trajectory
    and compares the centered time difference of k against the spatial
    right-hand side at the middle state.  The residual is O(dt^2) plus
    spatial truncation for converged runs.
    """
    states = list(states)
    if len(states) != 3:
        raise MissingSnapshots(f"need exactly 3 consecutive states, got {len(states)}")
    t0, t1, t2 = (s.time for s in states)
    dt1, dt2 = t1 - t0, t2 - t1
    if not (dt1 > 0 and abs(dt1 - dt2) <= 1e-9 * dt1):
        raise ValueError("states must be equally spaced in time")
    # one run's states: one length and one anchor
    k0, k1, k2 = diagnostics.observe(np.array([s.phi for s in states]), states[0].length,
                                     states[0].anchor).k
    k_t = (k2 - k0) / (t2 - t0)
    return float(np.max(np.abs(k_t - mkdv_rhs(k1, states[1].length))))


def point_curvature(points) -> np.ndarray:
    """Curvature from point samples, k = (x_a y_aa - x_aa y_a) / s_a^3."""
    x, y = _as_points(points)
    x_a, y_a = spectral_derivative(np.stack((x, y)))
    x_aa, y_aa = spectral_derivative(np.stack((x_a, y_a)))
    s_a = np.hypot(x_a, y_a)
    return (x_a * y_aa - x_aa * y_a) / s_a**3


def _fft_wavenumbers(n, odd):
    m = np.fft.fftfreq(n, 1.0 / n)
    if odd:
        m[n // 2] = 0.0
    return m


def _fft_derivative(values):
    """First derivative through the full complex FFT, the Nyquist mode zeroed."""
    return np.fft.ifft(1j * _fft_wavenumbers(values.size, True) * np.fft.fft(values)).real


def complex_fft_curve(state) -> np.ndarray:
    """Curve points (N, 2) anchored at state.anchor: z = x + iy from one
    complex ``fft``/``ifft`` antiderivative of z_alpha = (L/2*pi) e^{i theta},
    the mean and Nyquist modes dropped."""
    n = state.n
    m = _fft_wavenumbers(n, False)
    m[0] = 1.0  # placeholder: the mean is dropped with the Nyquist mode
    theta = grid_nodes(n) + state.phi
    z_hat = np.fft.fft(state.length / (2 * np.pi) * np.exp(1j * theta)) / (1j * m)
    z_hat[[0, n // 2]] = 0.0
    z = np.fft.ifft(z_hat)
    z = complex(*state.anchor) + (z - z[0])
    return np.column_stack([z.real, z.imag])


def reference_observation(state) -> dict:
    """The observer quantities computed independently in the full complex
    FFT: two real derivatives for k and k_s, :func:`complex_fft_curve` for
    the curve, spectral derivatives of x and y for the area, the farthest
    node from the centroid by ``hypot``, and fft/N power with its largest
    value at |m| > N/4."""
    n, length = state.n, state.length
    k = 2 * np.pi / length * (1.0 + _fft_derivative(state.phi))
    k_s = 2 * np.pi / length * _fft_derivative(k)
    m3 = length * np.mean(0.5 * k_s**2 - 0.125 * k**4)
    points = complex_fft_curve(state)
    x, y = points[:, 0], points[:, 1]
    area = abs(np.pi * np.mean(x * _fft_derivative(y) - y * _fft_derivative(x)))
    m = np.arange(-(n // 2) + 1, n // 2 + 1)
    power = np.abs((np.fft.fft(state.phi) / n)[m % n]) ** 2
    cx, cy = np.mean(x), np.mean(y)
    return dict(m=(length * np.mean(k), length * np.mean(k**2), m3), max_k=np.max(np.abs(k)),
                points=points, radius=np.sqrt(area / np.pi), centroid=(cx, cy),
                reach=np.max(np.hypot(x - cx, y - cy)), power=power,
                tail=np.max(power[np.abs(m) > n // 4]))


def linear_start_resample(curve, n: int):
    """Points (n, 2) and length of ``curve`` resampled uniformly in arc length.

    The cumulative arc length s(alpha) comes from the spectral
    antiderivative of s_alpha; Newton inverts its interpolant, started from
    the linear interpolant of s at the nodes and divided by the interpolant
    of s_alpha itself, each the value of its own ``trig_interpolate`` call.
    """
    fx, fy = curve
    alpha = grid_nodes(n)
    s_a = np.hypot(spectral_derivative(fx(alpha)), spectral_derivative(fy(alpha)))
    length = 2.0 * np.pi * float(np.mean(s_a))
    periodic = spectral_antiderivative(s_a - np.mean(s_a))
    periodic = periodic - periodic[0]
    targets = np.arange(n) * length / n
    at_nodes = length / (2.0 * np.pi) * alpha + periodic
    beta = np.interp(targets, np.append(at_nodes, length), np.append(alpha, 2.0 * np.pi))
    for _ in range(50):
        resid = length / (2.0 * np.pi) * beta + trig_interpolate(periodic, beta)[0] - targets
        beta = beta - resid / trig_interpolate(s_a, beta)[0]
        if np.max(np.abs(resid)) <= 1e-12 * length:
            return np.column_stack([fx(beta), fy(beta)]), length
    raise NoConvergence("arc-length inversion did not converge in 50 iterations")


def two_row_resample(curve, n: int):
    """Points (n, 2) and length of ``curve`` resampled uniformly in arc length,
    as ``geometry.resample_equal_arclength`` does from the same cubic Hermite
    start, but with Newton's slope interpolated as a row of its own: each
    iteration takes the values of one ``trig_interpolate`` call on the stack
    of the periodic arc length and s_beta = L/(2*pi) + its spectral derivative.
    """
    fx, fy = curve
    alpha = grid_nodes(n)
    s_a = np.hypot(*spectral_derivative(np.stack((fx(alpha), fy(alpha)))))
    length = 2.0 * np.pi * float(np.mean(s_a))
    periodic = spectral_antiderivative(s_a - np.mean(s_a))
    periodic = periodic - periodic[0]
    rows = np.stack([periodic, length / (2.0 * np.pi) + spectral_derivative(periodic)])
    targets = np.arange(n) * length / n
    knots = np.append(length / (2.0 * np.pi) * alpha + periodic, length)
    slopes = 1.0 / np.append(rows[1], rows[1, 0])
    k = np.searchsorted(knots, targets, side="right") - 1
    h = knots[k + 1] - knots[k]
    u = (targets - knots[k]) / h
    beta = (alpha[k] + u * u * (3.0 - 2.0 * u) * (2.0 * np.pi / n)
            + h * u * (1.0 - u) * ((1.0 - u) * slopes[k] - u * slopes[k + 1]))
    for _ in range(50):
        value, slope = trig_interpolate(rows, beta)[0]
        resid = length / (2.0 * np.pi) * beta + value - targets
        beta = beta - resid / slope
        if np.max(np.abs(resid)) <= 1e-12 * length:
            return np.column_stack([fx(beta), fy(beta)]), length
    raise NoConvergence("arc-length inversion did not converge in 50 iterations")


def per_state_observe(state) -> diagnostics.Observation:
    """Every observer quantity of one state by its own transform pair.

    phi and the tangent rows (L/2*pi)(cos theta, sin theta) share one
    3-row ``rfft``; the curve (the tangent's antiderivative, anchored at
    state.anchor) and phi_alpha, phi_alpha_alpha come back in one 4-row
    ``irfft``.  M1-M3, the area integrand x t_y - y t_x and the centroid
    are the means of one (6, N) stack of rows; the area takes the mean
    tangent (mu_x, mu_y) as mu_y cx - mu_x cy off the integrand's mean.
    """
    n, length = state.n, state.length
    theta = grid_nodes(n) + state.phi
    tangent = np.empty((2, n))
    np.cos(theta, out=tangent[0])
    np.sin(theta, out=tangent[1])
    tangent *= length / (2.0 * np.pi)
    spectra = np.fft.rfft(np.vstack((state.phi, tangent)), norm="forward")
    phi_hat, tangent_hat = spectra[0], spectra[1:]
    mu_x, mu_y = tangent_hat[:, 0].real.tolist()
    d = _derivative_symbol(n)
    back = np.empty((4, n // 2 + 1), dtype=np.complex128)
    np.multiply(tangent_hat, _antiderivative_symbol(n), out=back[:2])
    back[2] = d * phi_hat
    back[3] = d * back[2]
    values = np.fft.irfft(back, n, norm="forward")
    for row, start in zip(values, state.anchor):
        row -= row[0]
        row += start
    points, phi_a, phi_aa = values[:2].T, values[2], values[3]
    rows = np.empty((6, n))
    rows[4:] = points.T
    cross = points.T * tangent[::-1]
    np.subtract(cross[0], cross[1], out=rows[3])
    scale = 2.0 * np.pi / length
    k = rows[0]
    np.add(phi_a, 1.0, out=k)
    k *= scale
    np.multiply(k, k, out=rows[1])
    np.multiply(phi_aa, phi_aa, out=rows[2])
    rows[2] *= 0.5 * scale**4
    rows[2] -= 0.125 * (rows[1] * rows[1])
    means = rows.sum(axis=1) / n
    m1, m2, m3 = (means[:3] * length).tolist()
    area = abs(np.pi * float(means[3] - mu_y * means[4] + mu_x * means[5]))
    power = np.abs(phi_hat) ** 2
    offset = points - means[4:]
    offset *= offset
    return diagnostics.Observation(
        m1=m1, m2=m2, m3=m3, k=k, max_curvature=max(float(k.max()), -float(k.min())),
        power=np.concatenate([power[-2:0:-1], power]), tail=float(power[n // 4 + 1:].max()),
        points=points, radius=float(np.sqrt(area / np.pi)),
        centroid=(float(means[4]), float(means[5])),
        reach=math.sqrt(float((offset[:, 0] + offset[:, 1]).max())),
        closure=max(abs(mu_x), abs(mu_y)))


def per_state_rows(states) -> list[tuple]:
    """Diagnostics rows of observed states, each from its own
    :func:`per_state_observe`: time, M1-M3, xi against the first state,
    max |k|, the farthest node from the centroid less the first state's
    effective radius, the effective radius, the largest power beyond
    m = N/4 and the centroid."""
    rows = []
    for state in states:
        obs = per_state_observe(state)
        if not rows:
            m3_0, r0 = obs.m3, obs.radius
        rows.append((state.time, obs.m1, obs.m2, obs.m3, diagnostics.m3_drift(obs.m3, m3_0),
                     obs.max_curvature, obs.reach - r0, obs.radius, obs.tail, *obs.centroid))
    return rows


def mirror(state) -> ThetaLState:
    """The state of the curve reflected in the x axis, traversed counterclockwise.

    (x, y)(alpha) -> (x, -y)(-alpha) has theta'(alpha) = pi - theta(-alpha),
    so phi'_k = pi - phi_{-k mod N}, and the anchor (x0, y0) goes to
    (x0, -y0).  Curvature is k'(alpha) = k(-alpha): M1-M3 are unchanged.
    """
    x0, y0 = state.anchor
    return ThetaLState(phi=np.pi - np.roll(state.phi[::-1], 1), length=state.length,
                       time=state.time, anchor=(x0, -y0))


def reference_filter(coeffs, mode):
    """The mode filter ``mode`` of a half spectrum as a new array: rho2, the
    modes below the Krasny threshold zeroed, for "krasny"; rho1, the DPR
    profile, for "dpr"; ``coeffs`` itself for "none"."""
    if mode == "krasny":
        return np.where(np.abs(coeffs) < KRASNY_THRESHOLD, 0, coeffs)
    if mode == "dpr":
        return coeffs * _dpr_profile(2 * (coeffs.size - 1))
    return coeffs


def reference_levels(state, cfg, steps, nonlinear=None):
    """``schemes.integrate``'s loop in plain steps: yields (j, phi_hat) after step j.

    Every step makes new arrays: the term (``nonlinear``, by default
    ``schemes.nonlinear_term`` given no workspace), its filtered spectrum,
    and the new level, summed term by term in the recurrence's order
    a phi^j + b phi^{j-1} + c NL^j + d NL^{j-1}.  Both filters are
    :func:`reference_filter`'s.
    """
    term = nonlinear or schemes.nonlinear_term
    start, rule = schemes.step_rules(cfg, state.n, state.length)
    filter = None if cfg.filter == "none" else lambda c, out: reference_filter(c, cfg.filter)
    level = np.fft.rfft(state.phi, norm="forward")
    prev = prev_nl = None
    for j in range(1, steps + 1):
        nl = term(level, state.length, filter)
        nl_hat = reference_filter(np.fft.rfft(nl, norm="forward"), cfg.filter)
        used = start if j == 1 else rule
        new = None
        for coef, x in ((used.a, level), (used.b, prev), (used.c, nl_hat), (used.d, prev_nl)):
            if coef is not None:
                new = coef * x if new is None else new + coef * x
        prev, prev_nl, level = level, nl_hat, new
        yield j, level


@dataclass(frozen=True)
class TravellingWave:
    """An exact solution of the flow on a curve of length 2*pi, at N nodes.

    Its curvature k = 1 + phi0' solves k_ss + k^3/2 = mu k + p, so mKdV
    gives k_t = mu k_s: the curvature travels along the curve, and
    phi(alpha, t) = phi0(alpha + mu t) + (mu + p) t.
    """

    m: int
    coefficients: np.ndarray  # b_1 .. b_K of phi0 = sum_q b_q sin(q m alpha)
    mu: float
    p: float
    n: int

    def exact(self, t: float) -> np.ndarray:
        """The exact phi at time t at the N nodes."""
        modes = self.m * np.arange(1, self.coefficients.size + 1)
        nodes = grid_nodes(self.n) + self.mu * t
        return np.sin(np.outer(nodes, modes)) @ self.coefficients + (self.mu + self.p) * t

    @property
    def phi0(self) -> np.ndarray:
        return self.exact(0.0)

    def state(self) -> ThetaLState:
        """The wave at t = 0 as a state of length 2*pi."""
        return ThetaLState(self.phi0, 2.0 * np.pi)


def travelling_wave(m: int, eps: float, n: int) -> TravellingWave:
    """The m-fold travelling wave phi0 = eps sin(m alpha) + ..., at N = ``n`` nodes.

    The unknowns are b_2 .. b_K (K = 48), mu and p; the equations
    are the cosine coefficients at 0, m, ..., Km of
    phi0''' + (1 + phi0')^3/2 - mu (1 + phi0') - p, taken by one ``rfft``
    on 8Km collocation points, where the cube does not alias.  Newton,
    with a central-difference Jacobian, starts at the circle's branch
    point mu = 3/2 - m^2, p = m^2 - 1.  Raises :class:`NoConvergence` if
    the residual stays above 1e-14, and ``ValueError`` if N nodes leave
    more than roundoff of the wave's modes unresolved.
    """
    terms = 48
    size = 8 * terms * m
    modes = m * np.arange(1, terms + 1)

    def equations(x):
        spectrum = np.zeros(size // 2 + 1)
        spectrum[modes] = 0.5 * modes * np.concatenate(([eps], x[:-2]))
        slope = np.fft.irfft(spectrum, size, norm="forward")
        spectrum[modes] *= -(modes**2.0)
        third = np.fft.irfft(spectrum, size, norm="forward")
        mu, p = x[-2:]
        profile = third + 0.5 * (1.0 + slope) ** 3 - mu * (1.0 + slope) - p
        return np.fft.rfft(profile, norm="forward").real[m * np.arange(terms + 1)]

    x = np.zeros(terms + 1)
    x[-2:] = 1.5 - m * m, m * m - 1.0
    h = 1e-7
    for _ in range(12):
        r = equations(x)
        residual = float(np.abs(r).max())
        if residual <= 1e-14:
            break
        jacobian = np.column_stack([(equations(x + h * e) - equations(x - h * e)) / (2 * h)
                                    for e in np.eye(x.size)])
        x -= np.linalg.solve(jacobian, r)
    else:
        raise NoConvergence(f"travelling wave ({m}, {eps}): residual {residual:.1e} after 12 steps")
    coefficients = np.concatenate(([eps], x[:-2]))
    if np.abs(coefficients[modes >= n // 2]).sum() > 1e-15:
        raise ValueError(f"N = {n} does not resolve the travelling wave ({m}, {eps})")
    return TravellingWave(m, coefficients, float(x[-2]), float(x[-1]), n)
