"""Experiment harness: config parsing, named presets, run/convergence/filter
studies, and deterministic CSV emission.

Config grammar (one setting per line, flat key/value)::

    # comment            blank lines and '#' comments are ignored
    key = value          keys are lower_snake_case identifiers

Floats are written every way Python accepts (``5e-4``, ``0.0005``); CSV
output uses 17 significant digits so values round-trip exactly and
identical configs produce byte-identical files.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics, geometry, schemes, spectral
from .errors import BlowUp, ClosureViolation, ParseError, ValidationError
from .geometry import ThetaLState
from .schemes import SchemeConfig

_SHAPE_PARAM_KEYS = ("a", "b", "r", "r0", "delta0", "m")
_INT_KEYS = {"n", "m", "snapshot_stride", "diagnostic_stride"}
_FLOAT_KEYS = {"a", "b", "r", "r0", "delta0", "dt", "t_final", "t0", "closure_tol"}
_STR_KEYS = {"kind", "shape", "scheme", "filter", "axis", "out"}
_KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS
#: keys a preset override may set: the run settings, not the shape or the study
_OVERRIDE_KEYS = _KNOWN_KEYS - {*_SHAPE_PARAM_KEYS, "shape", "kind", "axis", "t0", "out"}

#: scheme/filter variants exercised by the filter study, in output order
FILTER_STUDY_VARIANTS = (
    ("ADB", "adb", "none"),
    ("ADBDPR", "adb", "dpr"),
    ("ADBK", "adb", "krasny"),
    ("CN", "cn", "none"),
    ("CNDPR", "cn", "dpr"),
    ("CNK", "cn", "krasny"),
    ("CNADB", "cnadb", "none"),
)

#: named initial curves with their reference run settings
PRESETS = {
    "E": dict(shape="ellipse", a=1.0, b=0.5, n=512, dt=5e-4, t_final=2.0,
              scheme="cnadb", extended=False),
    "E1": dict(shape="ellipse", a=1.0, b=np.sqrt(2.0) / 2.0, n=256, dt=1e-3,
               t_final=2.0, scheme="cnadb", extended=False),
    "E2": dict(shape="ellipse", a=1.0, b=2.0 ** 0.25 / 2.0, n=256, dt=5e-4,
               t_final=2.0, scheme="cnadb", extended=False),
    # extended presets loosen closure_tol: the closure integral drifts at the
    # trajectory's accumulated-error level (PC3 reaches ~7e-3 near T=4.5,
    # the cardioid ~3e-6), which is accuracy-limited, not a solver defect
    "PC3": dict(shape="pc3", n=512, dt=5e-6, t_final=4.5, scheme="cnadb",
                closure_tol=2e-2, extended=True),
    "CARDIOID": dict(shape="cardioid", n=512, dt=1e-5, t_final=5.0,
                     scheme="cnadb", closure_tol=1e-4, extended=True),
}


def format_float(x: float) -> str:
    """17-significant-digit formatting: round-trips doubles exactly."""
    return f"{float(x) + 0.0:.17g}"  # + 0.0 normalizes -0.0


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one trajectory (deterministic, seed-free)."""

    shape: str
    n: int
    dt: float
    t_final: float
    scheme: str
    filter: str = "none"
    shape_params: dict = field(default_factory=dict)
    snapshot_stride: int = 0  # 0: resolved to "start and end only"
    diagnostic_stride: int = 0  # 0: resolved to ~500 rows per run
    closure_tol: float = geometry.DEFAULT_CLOSURE_TOL
    output_dir: Optional[Path] = None

    def __post_init__(self):
        if self.scheme not in schemes.SCHEMES:
            raise ValidationError(f"scheme must be one of {schemes.SCHEMES}, got {self.scheme!r}")
        if self.filter not in schemes.FILTERS:
            raise ValidationError(f"filter must be one of {schemes.FILTERS}, got {self.filter!r}")
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        if self.n < 8 or self.n & (self.n - 1):
            raise ValidationError(f"n must be a power of two >= 8, got {self.n}")
        if self.t_final < 0:
            raise ValidationError("t_final must be nonnegative")
        ratio = self.t_final / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValidationError(
                f"t_final = {self.t_final!r} is not an integer multiple of dt = {self.dt!r}"
            )
        if self.snapshot_stride < 0 or self.diagnostic_stride < 0:
            raise ValidationError("strides must be positive (or 0 for the default)")
        steps = int(round(ratio))
        if self.snapshot_stride == 0:
            object.__setattr__(self, "snapshot_stride", max(1, steps))
        if self.diagnostic_stride == 0:
            object.__setattr__(self, "diagnostic_stride", max(1, steps // 500))
        if self.output_dir is not None:
            object.__setattr__(self, "output_dir", Path(self.output_dir))

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(scheme=self.scheme, dt=self.dt, n=self.n, filter=self.filter)

    def echo_pairs(self):
        """The resolved config as grammar-conformant (key, value) pairs."""
        pairs = [("shape", self.shape)]
        for key, value in sorted(self.shape_params.items()):
            pairs.append((key, value if key == "m" else format_float(value)))
        pairs += [
            ("n", self.n),
            ("dt", format_float(self.dt)),
            ("t_final", format_float(self.t_final)),
            ("scheme", self.scheme),
            ("filter", self.filter),
            ("snapshot_stride", self.snapshot_stride),
            ("diagnostic_stride", self.diagnostic_stride),
            ("closure_tol", format_float(self.closure_tol)),
        ]
        return pairs


@dataclass(frozen=True)
class ConvergenceStudyConfig:
    """Three-level refinement study in time or space (factors of 2)."""

    base: RunConfig
    axis: str
    comparison_time: float
    levels: int = 3

    def __post_init__(self):
        if self.axis not in ("time", "space"):
            raise ValidationError(f"axis must be 'time' or 'space', got {self.axis!r}")
        if self.levels != 3:
            raise ValidationError("convergence studies use exactly 3 levels")
        ratio = self.comparison_time / self.base.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValidationError(
                "comparison time t0 must be commensurate with the largest dt"
            )

    def level_configs(self):
        """The three run configs, coarsest first."""
        out = []
        for level in range(self.levels):
            if self.axis == "time":
                cfg = replace(self.base, dt=self.base.dt / 2**level,
                              t_final=self.comparison_time)
            else:
                cfg = replace(self.base, n=self.base.n * 2**level,
                              t_final=self.comparison_time)
            out.append(replace(cfg, output_dir=None, snapshot_stride=cfg.steps or 1,
                               diagnostic_stride=cfg.steps or 1))
        return out


# ---------------------------------------------------------------------------
# config parsing


def _parse_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError(lineno, len(raw.rstrip()) + 1, "expected 'key = value'")
        key, value = line.split("=", 1)
        key_start = len(key) - len(key.lstrip()) + 1
        key = key.strip()
        if not key.isidentifier():
            raise ParseError(lineno, key_start, f"bad key {key!r}")
        value_col = line.index("=") + 2
        value = value.strip()
        if not value:
            raise ParseError(lineno, value_col, f"missing value for {key!r}")
        yield lineno, value_col, key, value


def _convert(key: str, value: str):
    """The value typed by its key; a ValueError names the key and the type."""
    for keys, cast, kind in ((_INT_KEYS, int, "an integer"), (_FLOAT_KEYS, float, "a number")):
        if key in keys:
            try:
                return cast(value)
            except ValueError:
                raise ValueError(f"{key} expects {kind}, got {value!r}") from None
    return value


def parse_config(text: str):
    """Parse config text into a RunConfig or ConvergenceStudyConfig.

    Unknown keys and violated invariants raise :class:`ValidationError`;
    malformed lines raise :class:`ParseError` with line/column.
    """
    values: dict = {}
    for lineno, col, key, value in _parse_lines(text):
        if key not in _KNOWN_KEYS:
            raise ValidationError(f"unknown key {key!r} on line {lineno}")
        if key in values:
            raise ValidationError(f"duplicate key {key!r} on line {lineno}")
        try:
            values[key] = _convert(key, value)
        except ValueError as exc:
            raise ParseError(lineno, col, str(exc)) from None

    kind = values.pop("kind", "run")
    if kind not in ("run", "converge"):
        raise ValidationError(f"kind must be 'run' or 'converge', got {kind!r}")
    if "shape" not in values:
        raise ValidationError("config must set 'shape'")
    axis = values.pop("axis", None)
    t0 = values.pop("t0", None)
    out = values.pop("out", None)

    shape_params = {k: values.pop(k) for k in _SHAPE_PARAM_KEYS if k in values}
    missing = [k for k in ("n", "dt", "t_final") if k not in values]
    if missing:
        raise ValidationError(f"config must set {missing}")
    run = RunConfig(
        shape=values.pop("shape"),
        n=values.pop("n"),
        dt=values.pop("dt"),
        t_final=values.pop("t_final"),
        scheme=values.pop("scheme", "cnadb"),
        filter=values.pop("filter", "none"),
        shape_params=shape_params,
        snapshot_stride=values.pop("snapshot_stride", 0),
        diagnostic_stride=values.pop("diagnostic_stride", 0),
        closure_tol=values.pop("closure_tol", geometry.DEFAULT_CLOSURE_TOL),
        output_dir=out,
    )
    if kind == "run":
        if axis is not None or t0 is not None:
            raise ValidationError("'axis'/'t0' are only valid with kind = converge")
        return run
    if axis is None or t0 is None:
        raise ValidationError("kind = converge requires 'axis' and 't0'")
    return ConvergenceStudyConfig(base=run, axis=axis, comparison_time=t0)


def preset_config(name: str, **overrides) -> RunConfig:
    """RunConfig for a named preset, with optional field overrides."""
    key = name.upper()
    if key not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    preset = dict(PRESETS[key])
    preset.pop("extended")
    shape = preset.pop("shape")
    shape_params = {k: preset.pop(k) for k in _SHAPE_PARAM_KEYS if k in preset}
    preset.update(overrides)
    return RunConfig(shape=shape, shape_params=shape_params, **preset)


def parse_overrides(pairs) -> dict:
    """Typed preset overrides from ``key=value`` strings, keys typed as in a config."""
    overrides = {}
    for pair in pairs:
        key, sep, value = (part.strip() for part in pair.partition("="))
        if not sep:
            raise ValidationError(f"override {pair!r} is not key=value")
        if key not in _OVERRIDE_KEYS:
            raise ValidationError(f"preset override for unknown field {key!r}")
        overrides[key] = _convert(key, value)
    return overrides


def is_extended_preset(name: str) -> bool:
    return PRESETS[name.upper()]["extended"]


# ---------------------------------------------------------------------------
# running experiments


@dataclass(frozen=True)
class DiagnosticsRow:
    """Timestamped scalar health record emitted along a trajectory."""

    time: float
    m1: float
    m2: float
    m3: float
    xi: float
    max_curvature: float
    delta_n: float
    radius_n: float
    tail_max: float
    centroid_x: float
    centroid_y: float


DIAGNOSTICS_COLUMNS = (
    "time", "m1", "m2", "m3", "xi", "max_curvature",
    "delta_n", "radius_n", "tail_max", "centroid_x", "centroid_y",
)


@dataclass
class RunResult:
    config: RunConfig
    status: str  # "completed" | "blowup" | "closure"
    steps_completed: int
    final_state: Optional[ThetaLState]
    rows: list
    output_dir: Optional[Path]
    error: Optional[str] = None


def build_initial_state(cfg: RunConfig) -> ThetaLState:
    """Catalog shape -> equal-arc-length samples -> tangent-angle state."""
    curve = geometry.sample_catalog_curve(cfg.shape, cfg.n, **cfg.shape_params)
    points, length = geometry.resample_equal_arclength(curve, cfg.n)
    return geometry.extract_theta_l(points, length)


def _spectrum_tail_max(phi_hat_power: np.ndarray, n: int) -> float:
    m = spectral.symmetric_wavenumbers(n)
    return float(np.max(phi_hat_power[np.abs(m) > n // 4]))


class _DiagnosticsProbe:
    """Observer that accumulates DiagnosticsRow records."""

    def __init__(self, cfg: RunConfig, initial: ThetaLState):
        self.cfg = cfg
        self.rows: list[DiagnosticsRow] = []
        self.m3_baseline = diagnostics.conserved_quantities(initial).m3
        points0 = geometry.reconstruct_curve(initial, cfg.closure_tol)
        self.r0 = geometry.recover_radius(points0)

    def __call__(self, step: int, state: ThetaLState) -> None:
        triple = diagnostics.conserved_quantities(state)
        points = geometry.reconstruct_curve(state, self.cfg.closure_tol)
        cx, cy = geometry.centroid(points)
        radial = np.hypot(points[:, 0] - cx, points[:, 1] - cy)
        power = spectral.power_spectrum(spectral.dft(state.phi))
        k = geometry.curvature(state).values
        self.rows.append(
            DiagnosticsRow(
                time=state.time,
                m1=triple.m1,
                m2=triple.m2,
                m3=triple.m3,
                xi=(triple.m3 - self.m3_baseline) / self.m3_baseline,
                max_curvature=float(np.max(np.abs(k))),
                delta_n=float(np.max(radial - self.r0)),
                radius_n=float(np.sqrt(geometry.enclosed_area(points) / np.pi)),
                tail_max=_spectrum_tail_max(power, state.n),
                centroid_x=cx,
                centroid_y=cy,
            )
        )


class _SnapshotWriter:
    """Observer that dumps curve and spectrum CSVs at snapshot times."""

    def __init__(self, cfg: RunConfig, out_dir: Path):
        self.cfg = cfg
        self.out_dir = out_dir
        self.written: list[Path] = []

    def __call__(self, step: int, state: ThetaLState) -> None:
        tag = f"{state.time:.6f}"
        points = geometry.reconstruct_curve(state, self.cfg.closure_tol)
        k = geometry.curvature(state).values
        alpha = state.phi.nodes
        curve_path = self.out_dir / "snapshots" / f"curve_t{tag}.csv"
        _write_csv(
            curve_path,
            ("alpha", "x", "y", "k"),
            zip(alpha, points[:, 0], points[:, 1], k),
        )
        power = spectral.power_spectrum(spectral.dft(state.phi))
        spectrum_path = self.out_dir / f"spectrum_t{tag}.csv"
        _write_csv(
            spectrum_path,
            ("m", "power"),
            zip(spectral.symmetric_wavenumbers(state.n), power),
        )
        self.written += [curve_path, spectrum_path]


def _write_csv(path: Path, columns, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(_format_cell(cell) for cell in row) + "\n")


def _format_cell(cell) -> str:
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return format_float(cell)
    return str(cell)


def _write_keyvalue(path: Path, pairs) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for key, value in pairs:
            handle.write(f"{key} = {value}\n")


def run_experiment(cfg: RunConfig, nonlinear=None) -> RunResult:
    """Run one trajectory and write its output bundle.

    Writes diagnostics.csv, snapshot CSVs, the resolved config echo, and a
    manifest recording termination status and every emitted file.  A
    blow-up, or a state whose curve does not close when an observer
    reconstructs it, terminates the run but keeps partial outputs, flagged
    in the manifest as status "blowup" or "closure".
    """
    if cfg.output_dir is None:
        raise ValidationError("run_experiment requires output_dir")
    out_dir = cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_keyvalue(out_dir / "config.txt", cfg.echo_pairs())

    started = _time.perf_counter()
    initial = build_initial_state(cfg)
    probe = _DiagnosticsProbe(cfg, initial)
    snapshots = _SnapshotWriter(cfg, out_dir)
    observed = [0]  # step of the latest observer call, for errors raised inside one

    def tracked(observer):
        def call(step, state):
            observed[0] = step
            observer(step, state)

        return call

    observers = [(cfg.diagnostic_stride, tracked(probe)),
                 (cfg.snapshot_stride, tracked(snapshots))]

    status, error, final_state = "completed", None, initial
    steps_done = cfg.steps
    try:
        final_state = schemes.integrate(
            initial, cfg.scheme_config(), cfg.t_final, observers, nonlinear
        )
    except BlowUp as exc:
        status, error = "blowup", str(exc)
        steps_done = exc.step - 1
        final_state = None
    except ClosureViolation as exc:
        step = observed[0]
        status, error = "closure", f"closure at step {step} (t={step * cfg.dt:.6g}): {exc}"
        steps_done = step - 1
        final_state = None
    wall = _time.perf_counter() - started

    diag_path = out_dir / "diagnostics.csv"
    _write_csv(
        diag_path,
        DIAGNOSTICS_COLUMNS,
        (
            (r.time, r.m1, r.m2, r.m3, r.xi, r.max_curvature, r.delta_n,
             r.radius_n, r.tail_max, r.centroid_x, r.centroid_y)
            for r in probe.rows
        ),
    )

    outputs = [out_dir / "config.txt", diag_path, *snapshots.written]
    manifest = [
        ("status", status),
        ("steps_completed", steps_done),
        ("steps_requested", cfg.steps),
        ("wall_time_s", format_float(wall)),
    ]
    if error:
        manifest.append(("error", error))
    manifest += [(f"output.{i}", path.relative_to(out_dir)) for i, path in enumerate(outputs)]
    _write_keyvalue(out_dir / "manifest.txt", manifest)

    return RunResult(
        config=cfg,
        status=status,
        steps_completed=steps_done,
        final_state=final_state,
        rows=probe.rows,
        output_dir=out_dir,
        error=error,
    )


# ---------------------------------------------------------------------------
# studies


@dataclass(frozen=True)
class ConvergenceRow:
    """One row of a refinement table: the two difference norms and the order."""

    curve: str
    scheme: str
    t0: float
    err_coarse: float
    err_fine: float
    order: float


def _integrate_level(cfg: RunConfig, nonlinear=None) -> ThetaLState:
    initial = build_initial_state(cfg)
    return schemes.integrate(initial, cfg.scheme_config(), cfg.t_final, (), nonlinear)


def run_convergence_study(
    study: ConvergenceStudyConfig,
    output_dir=None,
    nonlinear=None,
    parallel: int = 1,
) -> ConvergenceRow:
    """Run the three refinement levels and report the observed order.

    Levels differ by factors of 2 in dt (axis "time") or n (axis
    "space"); states are compared at t0 on the coarser grid of each pair.
    """
    configs = study.level_configs()
    if parallel > 1 and nonlinear is None:
        with ProcessPoolExecutor(max_workers=min(parallel, len(configs))) as pool:
            states = list(pool.map(_integrate_level, configs))
    else:
        states = [_integrate_level(cfg, nonlinear) for cfg in configs]
    err_coarse = diagnostics.state_difference_norm(states[0], states[1])
    err_fine = diagnostics.state_difference_norm(states[1], states[2])
    order = diagnostics.convergence_order([err_coarse, err_fine])
    row = ConvergenceRow(
        curve=study.base.shape,
        scheme=study.base.scheme,
        t0=study.comparison_time,
        err_coarse=err_coarse,
        err_fine=err_fine,
        order=order,
    )
    if output_dir is not None:
        _write_csv(
            Path(output_dir) / "convergence.csv",
            ("curve", "scheme", "t0", "err_coarse", "err_fine", "order"),
            [(row.curve, row.scheme, row.t0, row.err_coarse, row.err_fine, row.order)],
        )
    return row


@dataclass
class FilterStudyResult:
    labels: list
    xi_series: dict  # label -> list of (time, xi)
    spectra: dict  # label -> power array at t_final
    errors: dict  # label -> error string for failed runs
    output_dir: Optional[Path]


def _run_filter_variant(args):
    label, scheme, filter_mode, base, initial = args
    cfg = replace(base, scheme=scheme, filter=filter_mode, output_dir=None)
    baseline = diagnostics.conserved_quantities(initial).m3
    series = []
    last = [initial]  # the final state, or the last observed one after a blow-up

    def probe(step, state):
        m3 = diagnostics.conserved_quantities(state).m3
        series.append((state.time, (m3 - baseline) / baseline))
        last[0] = state

    error = None
    try:
        last[0] = schemes.integrate(
            initial, cfg.scheme_config(), cfg.t_final, [(cfg.diagnostic_stride, probe)]
        )
    except BlowUp as exc:
        error = f"BlowUp: {exc}"
    return label, series, spectral.power_spectrum(spectral.dft(last[0].phi)), error


def run_filter_study(base: RunConfig, output_dir=None, parallel: int = 1) -> FilterStudyResult:
    """Run every scheme/filter variant from shared initial data.

    Emits one spectrum comparison CSV at the final time and one relative
    M3 drift comparison CSV; a failing variant is recorded and the study
    continues with the rest.
    """
    initial = build_initial_state(base)
    jobs = [(label, scheme, filt, base, initial) for label, scheme, filt in FILTER_STUDY_VARIANTS]
    xi_series, spectra, errors = {}, {}, {}
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=min(parallel, len(jobs))) as pool:
            outcomes = [(job[0], pool.submit(_run_filter_variant, job)) for job in jobs]
            outcomes = [(label, future.result()) for label, future in outcomes]
    else:
        outcomes = [(job[0], _run_filter_variant(job)) for job in jobs]
    for label, (_label, series, power, error) in outcomes:
        xi_series[label] = series
        spectra[label] = power
        if error is not None:
            errors[label] = error
    labels = [label for label, *_ in FILTER_STUDY_VARIANTS]

    out = Path(output_dir) if output_dir is not None else None
    if out is not None:
        m = spectral.symmetric_wavenumbers(base.n)
        _write_csv(
            out / "filters_spectra.csv",
            ("m", *(f"power_{label}" for label in labels)),
            zip(m, *(spectra[label] for label in labels)),
        )
        # blown-up variants have truncated series; leave their late cells empty
        times = sorted({t for series in xi_series.values() for t, _ in series})
        by_label = [dict(xi_series[label]) for label in labels]
        _write_csv(
            out / "filters_xi.csv",
            ("time", *(f"xi_{label}" for label in labels)),
            (
                (t, *((mapping[t] if t in mapping else "") for mapping in by_label))
                for t in times
            ),
        )
        status = [(f"variant.{label}", "failed" if label in errors else "ok")
                  for label in labels]
        status += [(f"error.{label}", msg) for label, msg in errors.items()]
        _write_keyvalue(out / "filters_manifest.txt", status)
    return FilterStudyResult(
        labels=labels, xi_series=xi_series, spectra=spectra, errors=errors, output_dir=out
    )
