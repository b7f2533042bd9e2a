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
them, writing every step into one workspace of arrays per trajectory.

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
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import BlowUp, NonCommensurateTime, ValidationError
from .geometry import ThetaLState
from .spectral import FILTERS, _derivative_symbol, irfft, mode_filter, rfft

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
    with ``b`` or ``d`` set needs the level one step back.  The present
    terms are resolved once, in the order a, b, c, d, as ``head`` and
    ``tail``: (coefficient, slot) pairs, the slot indexing the levels
    (phi^j, NL^j, phi^{j-1}, NL^{j-1}).
    """

    a: np.ndarray | float | None = None
    b: np.ndarray | float | None = None
    c: np.ndarray | float | None = None
    d: np.ndarray | float | None = None
    head: tuple = field(init=False, repr=False, compare=False)
    tail: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = [(coef, slot) for coef, slot in ((self.a, 0), (self.b, 2), (self.c, 1), (self.d, 3))
                 if coef is not None]
        if not terms:
            raise ValidationError("a step rule needs at least one coefficient")
        object.__setattr__(self, "head", terms[0])
        object.__setattr__(self, "tail", tuple(terms[1:]))


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

    with gamma_m = dt (2 pi m / L)^3 over the half spectrum m = 0..N/2, m
    read off the derivative symbol i m, so the Nyquist gamma is zeroed as
    that symbol is: the third-derivative symbol is odd and carries no
    information there on a real grid, and a real multiplier keeps phi real.
    """
    dt = cfg.dt
    gamma = dt * (2.0 * np.pi * _derivative_symbol(n).imag / length) ** 3
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


def _recur(rule: StepRule, out, scratch, levels) -> np.ndarray:
    """a phi^j + b phi^{j-1} + c NL^j + d NL^{j-1} over the rule's slots of
    ``levels``, written into ``out``, each product but the first taken in
    ``scratch``; a None buffer is allocated."""
    coef, slot = rule.head
    out = np.multiply(coef, levels[slot], out=out)
    for coef, slot in rule.tail:
        out += np.multiply(coef, levels[slot], out=scratch)
    return out


def init_step(rule: StepRule, phi_hat, nl_hat, out=None, scratch=None) -> np.ndarray:
    """First step: phi^1 from level 0 alone by a start rule, written into ``out``.

    ``scratch`` is a half spectrum the products pass through; neither
    buffer may be a level, and a buffer left at None is allocated."""
    return _recur(rule, out, scratch, (phi_hat, nl_hat))


def step(rule: StepRule, phi_hat, nl_hat, prev_hat, prev_nl, out=None, scratch=None) -> np.ndarray:
    """Later step: phi^{j+1} from the spectra of phi and NL at levels j and j-1,
    written into ``out`` as :func:`init_step` writes it."""
    return _recur(rule, out, scratch, (phi_hat, nl_hat, prev_hat, prev_nl))


def nonlinear_term(phi_hat: np.ndarray, length: float, filter=None,
                   d_phi=None, theta_a=None, cube=None) -> np.ndarray:
    """Physical-space nonlinear term (2*pi/L)^3 (1 + D phi)^3 / 2 at the nodes.

    ``phi_hat`` is the half spectrum :func:`spectral.rfft` of phi.  D is
    the first derivative with the configured mode filter; the solution
    itself is never filtered.  ``filter`` is the filter
    :func:`spectral.mode_filter` resolved for this N, None for unfiltered.

    D phi is written into the half spectrum ``d_phi`` (the filter, if
    any, is applied there first).  The derivative symbol zeroes the mean
    slot, so setting it to 1 makes the one :func:`spectral.irfft` write
    theta_alpha = 1 + D phi into the node row ``theta_a``.  The cube is
    taken into the node row ``cube`` by two products, not by ``power``,
    and the scalar (2*pi/L)^3 / 2 is applied in place: beyond the
    transform the term costs a few passes over the N nodes.  Returns
    ``cube``; a buffer left at None is allocated, and ``phi_hat`` is only
    read.
    """
    n = 2 * (phi_hat.size - 1)
    filtered = phi_hat if filter is None else filter(phi_hat, d_phi)
    d_phi = np.multiply(_derivative_symbol(n), filtered, out=d_phi)
    d_phi[0] = 1.0
    theta_a = irfft(d_phi, theta_a)
    cube = np.multiply(theta_a, theta_a, out=cube)
    cube *= theta_a
    cube *= 0.5 * (2.0 * np.pi / length) ** 3
    return cube


def _spectral_bound_sq(phi_hat: np.ndarray) -> float:
    """A bound on max|phi|^2 from the half spectrum in one ``vdot``:
    max|phi| <= 2 sum|phi_hat_m| <= 2 sqrt((N/2+1) sum|phi_hat_m|^2)
    by Cauchy-Schwarz.  nan for a non-finite spectrum."""
    return 4.0 * phi_hat.size * np.vdot(phi_hat, phi_hat).real


def integrate(
    initial: ThetaLState,
    cfg: SchemeConfig,
    t_final: float,
    observers=(),
    nonlinear: Optional[Callable[..., np.ndarray]] = None,
) -> ThetaLState:
    """Advance the state from its current time to t_final.

    ``t_final - initial.time`` must be a whole number of steps
    (:func:`step_count`).
    ``observers`` is an iterable of (stride, callback) pairs; each
    callback(step, phi) fires at step 0, every ``stride`` steps, and at the
    final step (a stride that is not an integer >= 1 raises
    :class:`ValidationError` before step 0), by one closure that calls
    those due and returns the next due step.  phi is the grid row the loop
    holds, ``initial.phi`` at step 0, which the next step overwrites: a
    callback copies what it keeps and writes none of it.  Step j is at
    ``initial.time + j * dt``.  Only the state's phi, length and time are
    read: ``initial`` is returned with phi and time replaced (itself for
    zero steps), its other fields passed through.
    Raises :class:`BlowUp` if max|phi| is non-finite or exceeds :data:`BLOWUP_LIMIT`.

    The guard reads max|phi| off the grid only when the spectral bound
    2 sqrt((N/2+1) sum|phi_hat_m|^2) exceeds half the limit, and phi is
    otherwise transformed back only where an observer fires and at the
    final step, so an unobserved step takes two real transforms: the
    ``irfft`` inside the nonlinear term and the ``rfft`` of the term.

    Each trajectory gets one workspace of plain arrays, built before
    step 0, and every step writes into it: three half-spectrum levels
    that rotate (j, j-1, and j+1 being written), the NL spectra of levels
    j and j-1, a half spectrum for D phi that the recurrence then uses for
    its products, and two node rows for theta_alpha and its cube.  Phi is
    transformed into the theta_alpha row where it is needed, the row
    observers are handed.  The mode filter is resolved into the workspace
    too (:func:`spectral.mode_filter`: the DPR profile, the Krasny |z| and
    mask buffers), and an unfiltered step calls no filter.

    ``nonlinear`` replaces :func:`nonlinear_term` for this call and is
    called as it is: ``(phi_hat, length, filter, d_phi, theta_a, cube)``,
    ``filter`` being the resolved filter (None for "none").  It must not
    write ``phi_hat``, the level; it may overwrite the three workspace
    arrays after it (a half spectrum and two node rows) and returns the
    term at the N nodes, in ``cube`` or in an array of its own.  A
    non-finite term trips the guard at the same step.

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
    n, length, t0, dt = initial.n, initial.length, initial.time, cfg.dt
    start, rule = step_rules(cfg, n, length)
    term = nonlinear or nonlinear_term

    def notify(j, phi):
        """Hand phi to each observer due at step j; return the next due step (<= steps)."""
        due = steps
        for stride, callback in observers:
            if j == steps or j % stride == 0:
                callback(j, phi)
            due = min(due, j + stride - j % stride)
        return due

    # the workspace: levels j, j-1, j+1; NL spectra j, j-1; D phi; theta_alpha,
    # cube; the filter's own buffers
    phi_hat, prev_hat, new_hat, nl_hat, prev_nl, d_phi = (
        np.empty(n // 2 + 1, dtype=np.complex128) for _ in range(6))
    theta_a, cube = np.empty(n), np.empty(n)
    filter = mode_filter(cfg.filter, n)
    bound_sq = (BLOWUP_LIMIT / 2) ** 2
    rfft(initial.phi, phi_hat)
    due = notify(0, initial.phi)
    for j in range(1, steps + 1):
        nl = term(phi_hat, length, filter, d_phi, theta_a, cube)
        rfft(nl, nl_hat)
        if filter is not None:
            filter(nl_hat, nl_hat)
        if j == 1:
            init_step(start, phi_hat, nl_hat, new_hat, d_phi)
        else:
            step(rule, phi_hat, nl_hat, prev_hat, prev_nl, new_hat, d_phi)
        phi_hat, prev_hat, new_hat = new_hat, phi_hat, prev_hat
        nl_hat, prev_nl = prev_nl, nl_hat
        # well inside the limit the guard cannot trip; otherwise (or
        # non-finite) check exactly
        bounded = _spectral_bound_sq(phi_hat) <= bound_sq
        if bounded and j != due:
            continue
        phi = irfft(phi_hat, theta_a)
        if not bounded:
            peak = float(np.abs(phi, out=cube).max())
            if not (math.isfinite(peak) and peak <= BLOWUP_LIMIT):
                raise BlowUp(j, t0 + j * dt, f"max|phi| = {peak:.3e} exceeds {BLOWUP_LIMIT:.3e}")
        if j == due:
            due = notify(j, phi)
    return replace(initial, phi=theta_a, time=t0 + steps * dt) if steps else initial
