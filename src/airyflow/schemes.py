"""Time integrators for the tangent-angle evolution
theta_t = (2*pi/L)^3 [theta_aaa + theta_a^3 / 2] in Fourier space.

Three non-stiff schemes are provided:

* ``adb``   -- integrating-factor Euler start, then two-step
  Adams-Bashforth; the stiff linear term is propagated exactly by the
  unimodular multiplier zeta_m = exp(-i dt (2 pi m / L)^3).
* ``cn``    -- explicit Euler start, then a leapfrog update with the
  linear term treated Crank-Nicolson style across the j-1/j+1 levels.
* ``cnadb`` -- the cn scheme with its first step replaced by the average
  of the adb and cn first steps.

Every step of every scheme is one two-level recurrence per mode,
phi^{j+1} = A phi^j + B phi^{j-1} + C NL^j + D NL^{j-1}, so a scheme is
data: a start rule and a step rule of coefficients (:func:`step_rules`).
:func:`integrate` is one loop over the half spectrum of phi that applies
them.

All updates act on the modes of phi = theta - alpha: the alpha-linear
part of theta is not periodic, has the same linear symbol for every mode
it shares with phi, and enters the dynamics only through
theta_alpha = 1 + phi_alpha inside the nonlinear term.  The nonlinear
term is evaluated pointwise in physical space by :func:`nonlinear_term`;
the one way to substitute it (to check linear exactness) is a function
of the same arguments passed to :func:`integrate`.  A run ends with
:class:`BlowUp` once max|phi| goes non-finite or exceeds ``BLOWUP_LIMIT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import BlowUp, NonCommensurateTime, ValidationError
from .geometry import ThetaLState
from .spectral import FILTERS, _derivative_symbol, filter_modes

SCHEMES = ("adb", "cn", "cnadb")

#: the blow-up guard on max|phi|: a diagnostic, not physics
BLOWUP_LIMIT = 1e3


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection, step size and mode filter for a trajectory.

    These checks are the only ones of the three settings: ``RunConfig``
    is a SchemeConfig.  The grid size is the state's.
    """

    scheme: str
    dt: float
    filter: str = "none"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.filter not in FILTERS:
            raise ValidationError(f"filter must be one of {FILTERS}, got {self.filter!r}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValidationError(f"dt must be positive and finite, got {self.dt!r}")


def step_count(span: float, dt: float, name: str = "t_final") -> int:
    """The number of steps of size dt in ``span``, the run time ``name`` sets.

    Raises :class:`NonCommensurateTime`, naming ``name``, for a non-finite
    or negative span or one that is not a whole number of steps: a partial
    final step would break the multistep error structure.
    """
    if not math.isfinite(span):
        raise NonCommensurateTime(f"{name} spans {span!r}, not a finite time")
    if span < 0:
        raise NonCommensurateTime(f"{name} precedes the start time by {-span!r}")
    ratio = span / dt
    steps = int(round(ratio))
    if abs(ratio - steps) > 1e-9 * max(1.0, ratio):
        raise NonCommensurateTime(
            f"{name} spans {span!r}, not a whole number of steps of dt = {dt!r}"
        )
    return steps


def check_stride(stride, name: str = "observer stride") -> None:
    """Reject a stride that is not a whole number of steps >= 1, naming it.

    An observer fires at step 0 and on each multiple of its stride, which
    the stepping loop reaches only for a positive integer.
    """
    if not (isinstance(stride, (int, np.integer)) and stride >= 1):
        raise ValidationError(f"{name} must be an integer >= 1, got {stride!r}")


@dataclass(frozen=True)
class StepRule:
    """Per-mode coefficients of phi^{j+1} = a phi^j + b phi^{j-1} + c NL^j + d NL^{j-1}.

    Every level is a half spectrum and every coefficient an array over its
    modes or a scalar; a coefficient left at None drops its term.  A rule
    with ``b`` or ``d`` set needs the level one step back.
    """

    a: np.ndarray | float | None = None
    b: np.ndarray | float | None = None
    c: np.ndarray | float | None = None
    d: np.ndarray | float | None = None


def step_rules(cfg: SchemeConfig, n: int, length: float) -> tuple[StepRule, StepRule]:
    """The (start, step) rules of ``cfg.scheme`` for N nodes on a curve of length L:

    ============  ===================  =====  ================  ==============
    rule          a                    b      c                 d
    ============  ===================  =====  ================  ==============
    adb           zeta                        1.5 dt zeta       -0.5 dt zeta^2
    cn, cnadb                          zeta1  2 dt zeta2
    adb start     zeta                        dt zeta
    cn start      1 - i gamma                 dt
    cnadb start   (zeta + 1 - i gamma)/2      dt (1 + zeta)/2
    ============  ===================  =====  ================  ==============

    The cnadb start is the average of the adb and cn starts.  The per-mode
    factors, constant along a trajectory since L is, are

    zeta  = exp(-i gamma)                 |zeta| = 1
    zeta1 = (1 - i gamma)/(1 + i gamma)   |zeta1| = 1
    zeta2 = (1 - i gamma)/(1 + gamma^2)   |zeta2| <= 1

    with gamma_m = dt (2 pi m / L)^3 over the half spectrum m = 0..N/2.
    The Nyquist gamma is zeroed: the third-derivative symbol is odd and
    carries no information there on a real grid, and a real multiplier
    keeps phi real.
    """
    dt = cfg.dt
    m = np.arange(n // 2 + 1, dtype=np.float64)
    m[-1] = 0.0
    gamma = dt * (2.0 * np.pi * m / length) ** 3
    zeta = np.exp(-1j * gamma)
    if cfg.scheme == "adb":
        return (StepRule(a=zeta, c=dt * zeta),
                StepRule(a=zeta, c=1.5 * dt * zeta, d=-0.5 * dt * zeta**2))
    zeta1 = (1.0 - 1j * gamma) / (1.0 + 1j * gamma)
    zeta2 = (1.0 - 1j * gamma) / (1.0 + gamma**2)
    leapfrog = StepRule(b=zeta1, c=2.0 * dt * zeta2)
    if cfg.scheme == "cn":
        return StepRule(a=1.0 - 1j * gamma, c=dt), leapfrog
    return StepRule(a=0.5 * (zeta + 1.0 - 1j * gamma), c=0.5 * dt * (1.0 + zeta)), leapfrog


def _recur(rule: StepRule, phi_hat, nl_hat, prev_hat, prev_nl) -> np.ndarray:
    out = None
    for coef, level in ((rule.a, phi_hat), (rule.b, prev_hat), (rule.c, nl_hat),
                        (rule.d, prev_nl)):
        if coef is None:
            continue
        if out is None:
            out = coef * level  # a new array: the levels are history, never written
        else:
            out += coef * level
    return out


def init_step(rule: StepRule, phi_hat: np.ndarray, nl_hat: np.ndarray) -> np.ndarray:
    """First step: phi^1 from level 0 alone by a start rule."""
    return _recur(rule, phi_hat, nl_hat, None, None)


def step(rule: StepRule, phi_hat, nl_hat, prev_hat, prev_nl) -> np.ndarray:
    """Later step: phi^{j+1} from the spectra of phi and NL at levels j and j-1."""
    return _recur(rule, phi_hat, nl_hat, prev_hat, prev_nl)


def nonlinear_term(phi_hat: np.ndarray, length: float, filter: str = "none") -> np.ndarray:
    """Physical-space nonlinear term (2*pi/L)^3 (1 + D phi)^3 / 2 at the nodes.

    ``phi_hat`` is the half spectrum ``rfft(phi, norm="forward")``.  D is
    the first derivative with the configured mode filter; the solution
    itself is never filtered.

    The derivative symbol zeroes the mean slot, so setting it to 1 makes
    the one ``irfft`` return theta_alpha = 1 + D phi directly.  The cube is
    taken by two products, not by ``power``, and the scalar
    (2*pi/L)^3 / 2 is applied in place: beyond the transform the term
    costs a few passes over the N nodes.
    """
    n = 2 * (phi_hat.size - 1)
    d_phi = _derivative_symbol(n, 1) * filter_modes(phi_hat, filter)
    d_phi[0] = 1.0
    theta_a = np.fft.irfft(d_phi, n, norm="forward")
    term = theta_a * theta_a
    term *= theta_a
    term *= 0.5 * (2.0 * np.pi / length) ** 3
    return term


def integrate(
    initial: ThetaLState,
    cfg: SchemeConfig,
    t_final: float,
    observers=(),
    nonlinear: Optional[Callable[[np.ndarray, float, str], np.ndarray]] = None,
) -> ThetaLState:
    """Advance the state from its current time to t_final.

    ``t_final - initial.time`` must be a whole number of steps
    (:func:`step_count`).
    ``observers`` is an iterable of (stride, callback) pairs; each
    callback(step_index, state) fires at step 0, every ``stride`` steps,
    and at the final step; a stride that is not an integer >= 1 raises
    :class:`ValidationError` before step 0.  Raises :class:`BlowUp` if
    the solution goes non-finite or max|phi| exceeds :data:`BLOWUP_LIMIT`.

    The guard reads max|phi| off the grid only when the spectral bound
    2 sum|phi_hat_m| exceeds half the limit, and phi is otherwise
    transformed back only where an observer fires and at the final step,
    so an unobserved step takes two real transforms: the ``irfft`` inside
    the nonlinear term and the ``rfft`` of the term.

    ``nonlinear`` replaces :func:`nonlinear_term` for this call: it takes
    the same ``(phi_hat, length, filter)`` and returns the term at the
    nodes.  A non-finite term trips the guard at the same step.

    The spectrum of the nonlinear term is filtered as configured, on top
    of the filtered derivative inside the term: the cubic regenerates
    (aliased) content beyond the filtered band, so damping only the
    derivative leaves an undamped feedback loop at the filter edge that
    destabilizes the adb scheme.
    """
    steps = step_count(t_final - initial.time, cfg.dt)
    observers = tuple(observers)
    for stride, _ in observers:
        check_stride(stride)
    n, t0, dt = initial.n, initial.time, cfg.dt
    start, rule = step_rules(cfg, n, initial.length)
    term = nonlinear or nonlinear_term

    def state_at(j, phi):
        return initial if j == 0 else replace(initial, phi=phi, time=t0 + j * dt)

    def notify(j, phi):
        state = state_at(j, phi)
        for stride, callback in observers:
            if j == 0 or j == steps or j % stride == 0:
                callback(j, state)

    def next_due(j):
        """The first step after j at which an observer fires: the final step at the latest."""
        return min([steps] + [j + stride - j % stride for stride, _ in observers])

    phi = initial.phi
    phi_hat = np.fft.rfft(phi, norm="forward")
    prev = None  # (phi_hat, nl_hat) one level back
    notify(0, phi)
    due = next_due(0)
    for j in range(1, steps + 1):
        nl = term(phi_hat, initial.length, cfg.filter)
        nl_hat = filter_modes(np.fft.rfft(nl, norm="forward"), cfg.filter)
        if prev is None:
            new_hat = init_step(start, phi_hat, nl_hat)
        else:
            new_hat = step(rule, phi_hat, nl_hat, *prev)
        prev, phi_hat = (phi_hat, nl_hat), new_hat
        # max|phi| <= 2 sum|phi_hat_m| over the half spectrum: well inside the
        # limit the guard cannot trip; otherwise (or non-finite) check exactly
        bounded = 2.0 * float(np.abs(phi_hat).sum()) <= BLOWUP_LIMIT / 2
        if bounded and j != due:
            continue
        phi = np.fft.irfft(phi_hat, n, norm="forward")
        if not bounded:
            peak = float(np.abs(phi).max())
            if not (math.isfinite(peak) and peak <= BLOWUP_LIMIT):
                raise BlowUp(j, t0 + j * dt, f"max|phi| = {peak:.3e} exceeds {BLOWUP_LIMIT:.3e}")
        if j == due:
            notify(j, phi)
            due = next_due(j)
    return state_at(steps, phi)
