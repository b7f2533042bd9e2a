"""Experiment harness: config parsing, named presets, run/convergence/filter
studies, and deterministic CSV emission.

Config grammar (one setting per line, flat key/value)::

    # comment            blank lines and '#' comments are ignored
    key = value          keys are lower_snake_case identifiers

Floats are written every way Python accepts (``5e-4``, ``0.0005``) except
``nan`` and ``inf``, which are rejected; CSV
output uses 17 significant digits so values round-trip exactly and
identical configs produce byte-identical files.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import diagnostics, geometry, schemes, spectral
from .errors import BlowUp, ClosureViolation, ParseError, StudyFailed, ValidationError
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


@dataclass(frozen=True, kw_only=True)
class RunConfig(SchemeConfig):
    """Fully resolved settings for one trajectory (deterministic, seed-free).

    The scheme, dt and filter are its :class:`SchemeConfig` fields, so a
    RunConfig is passed to :func:`schemes.integrate` as it is.
    """

    shape: str
    n: int
    t_final: float
    shape_params: dict = field(default_factory=dict)
    snapshot_stride: int = 0  # 0: resolved to "start and end only"
    diagnostic_stride: int = 0  # 0: resolved to ~500 rows per run
    closure_tol: float = geometry.DEFAULT_CLOSURE_TOL
    output_dir: Optional[Path] = None

    def __post_init__(self):
        super().__post_init__()  # checks scheme, filter and dt
        spectral._check_grid_size(self.n)
        geometry.catalog_curve(self.shape, **self.shape_params)  # checks shape and parameters
        steps = self.steps  # checks t_final
        if self.snapshot_stride == 0:
            object.__setattr__(self, "snapshot_stride", max(1, steps))
        if self.diagnostic_stride == 0:
            object.__setattr__(self, "diagnostic_stride", max(1, steps // 500))
        schemes.check_stride(self.snapshot_stride, "snapshot_stride")
        schemes.check_stride(self.diagnostic_stride, "diagnostic_stride")
        # nan or inf would switch the closure check off, and a tolerance
        # <= 0 would fail every curve at step 0
        if not (self.closure_tol > 0.0 and math.isfinite(self.closure_tol)):
            raise ValidationError(
                f"closure_tol must be positive and finite, got {self.closure_tol!r}")
        if self.output_dir is not None:
            object.__setattr__(self, "output_dir", Path(self.output_dir))

    @property
    def steps(self) -> int:
        return schemes.step_count(self.t_final, self.dt)

    def echo_pairs(self):
        """The resolved config as grammar-conformant (key, value) pairs."""
        pairs = [("shape", self.shape)]
        for key, value in sorted(self.shape_params.items()):
            pairs.append((key, int(value) if key == "m" else format_float(value)))
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

    def __post_init__(self):
        if self.axis not in ("time", "space"):
            raise ValidationError(f"axis must be 'time' or 'space', got {self.axis!r}")
        schemes.step_count(self.comparison_time, self.base.dt, "t0")

    def level_configs(self):
        """The three run configs, coarsest first."""
        base, t0 = self.base, self.comparison_time
        if self.axis == "time":
            return [replace(base, dt=base.dt / 2**level, t_final=t0) for level in range(3)]
        return [replace(base, n=base.n * 2**level, t_final=t0) for level in range(3)]


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


def _finite_float(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(value)
    return number


def _convert(key: str, value: str):
    """The value typed by its key; a ValueError names the key and the type.

    Config text and preset overrides become numbers only here, so nan and
    inf are rejected here for every float setting.
    """
    for keys, cast, kind in ((_INT_KEYS, int, "an integer"),
                             (_FLOAT_KEYS, _finite_float, "a finite number")):
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
    if kind == "converge":
        if axis is None or t0 is None:
            raise ValidationError("kind = converge requires 'axis' and 't0'")
        if "t_final" not in values and "dt" in values:
            # every level runs to t0: name t0, not the t_final copied from it
            schemes.step_count(t0, values["dt"], "t0")
        values.setdefault("t_final", t0)
    missing = [k for k in ("n", "dt", "t_final") if k not in values]
    if missing:
        raise ValidationError(f"config must set {missing}")
    values.setdefault("scheme", "cnadb")
    run = RunConfig(shape_params=shape_params, output_dir=out, **values)
    if kind == "run":
        if axis is not None or t0 is not None:
            raise ValidationError("'axis'/'t0' are only valid with kind = converge")
        return run
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


class DiagnosticsRow(NamedTuple):
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


DIAGNOSTICS_COLUMNS = DiagnosticsRow._fields


@dataclass
class RunResult:
    status: str  # "completed" | "blowup" | "closure"
    steps_completed: int
    rows: list
    output_dir: Optional[Path]
    error: Optional[str] = None


def build_initial_state(cfg: RunConfig) -> ThetaLState:
    """Catalog shape -> equal-arc-length samples -> tangent-angle state."""
    curve = geometry.catalog_curve(cfg.shape, **cfg.shape_params)
    points, length = geometry.resample_equal_arclength(curve, cfg.n)
    return geometry.extract_theta_l(points, length)


class _DiagnosticsProbe:
    """Observer that accumulates DiagnosticsRow records.

    The step-0 call sets the baselines of ``xi`` (M3) and ``delta_n``
    (the effective radius), so a curve that does not close at step 0
    raises inside the run like at any later step.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.rows: list[DiagnosticsRow] = []

    def __call__(self, step: int, state: ThetaLState) -> None:
        obs = diagnostics.observe(state, self.cfg.closure_tol)
        triple = obs.triple
        if step == 0:
            self.m3_baseline, self.r0 = triple.m3, obs.radius
        cx, cy = obs.centroid
        radial = np.hypot(obs.points[:, 0] - cx, obs.points[:, 1] - cy)
        self.rows.append(
            DiagnosticsRow(
                time=state.time,
                m1=triple.m1,
                m2=triple.m2,
                m3=triple.m3,
                xi=diagnostics.m3_drift(triple.m3, self.m3_baseline),
                max_curvature=float(np.max(np.abs(obs.k))),
                delta_n=float(np.max(radial - self.r0)),
                radius_n=obs.radius,
                tail_max=float(np.max(obs.power[3 * state.n // 4:])),  # m > N/4
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
        obs = diagnostics.observe(state, self.cfg.closure_tol)
        curve_path = self.out_dir / "snapshots" / f"curve_t{tag}.csv"
        _write_csv(
            curve_path,
            ("alpha", "x", "y", "k"),
            zip(spectral.grid_nodes(state.n), obs.points[:, 0], obs.points[:, 1], obs.k),
        )
        spectrum_path = self.out_dir / f"spectrum_t{tag}.csv"
        _write_csv(
            spectrum_path,
            ("m", "power"),
            zip(spectral.symmetric_wavenumbers(state.n), obs.power),
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


def run_experiment(cfg: RunConfig) -> RunResult:
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
    probe = _DiagnosticsProbe(cfg)
    snapshots = _SnapshotWriter(cfg, out_dir)
    observers = [(cfg.diagnostic_stride, probe), (cfg.snapshot_stride, snapshots)]

    status, error = "completed", None
    steps_done = cfg.steps
    try:
        schemes.integrate(initial, cfg, cfg.t_final, observers)
    except BlowUp as exc:
        status, error = "blowup", str(exc)
        steps_done = exc.step - 1
    except ClosureViolation as exc:
        step = schemes.step_count(exc.time, cfg.dt)
        status, error = "closure", f"closure at step {step} (t={step * cfg.dt:.6g}): {exc}"
        steps_done = max(step - 1, 0)
    wall = _time.perf_counter() - started

    diag_path = out_dir / "diagnostics.csv"
    _write_csv(diag_path, DIAGNOSTICS_COLUMNS, probe.rows)

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
        status=status,
        steps_completed=steps_done,
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


def run_convergence_study(study: ConvergenceStudyConfig, output_dir=None) -> ConvergenceRow:
    """Run the three refinement levels and report the observed order.

    Levels differ by factors of 2 in dt (axis "time") or n (axis
    "space"); states are compared at t0 on the coarser grid of each pair.
    A level that blows up is recorded and the study goes on with the
    rest.  With ``output_dir``, ``convergence_manifest.txt`` gives each
    level's status, and ``convergence.csv`` is written only when all three
    levels complete.  Raises :class:`StudyFailed` after any level failed.
    """
    states, errors = [], {}
    for level, cfg in enumerate(study.level_configs()):
        try:
            initial = build_initial_state(cfg)
            states.append(schemes.integrate(initial, cfg, cfg.t_final))
        except BlowUp as exc:
            setting = f"dt = {cfg.dt!r}" if study.axis == "time" else f"n = {cfg.n}"
            errors[level] = f"level {level} ({setting}): {exc}"
    if output_dir is not None:
        status = [(f"level.{level}", "failed" if level in errors else "ok") for level in range(3)]
        status += [(f"error.{level}", msg) for level, msg in errors.items()]
        _write_keyvalue(Path(output_dir) / "convergence_manifest.txt", status)
    if errors:
        raise StudyFailed(errors)
    err_coarse = diagnostics.state_difference_norm(states[0], states[1])
    err_fine = diagnostics.state_difference_norm(states[1], states[2])
    order = diagnostics.convergence_order(err_coarse, err_fine)
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


def _run_filter_variant(cfg: RunConfig, initial: ThetaLState):
    """One variant's (time, xi) series, last power spectrum, largest closure
    defect (the mean tangent's larger part, as reconstruct_curve tests it)
    and error (None if it completed)."""
    series = []
    baseline, power, closure = None, None, 0.0

    def probe(step, state):
        nonlocal baseline, power, closure
        obs = diagnostics.observe(state)  # no curve: the study reads M3 and power
        if step == 0:
            baseline = obs.triple.m3
        series.append((state.time, diagnostics.m3_drift(obs.triple.m3, baseline)))
        power = obs.power  # the final state's, or the last observed one's after a failure
        mean = complex(np.mean(geometry.curve_tangent(state)))
        closure = max(closure, abs(mean.real), abs(mean.imag))

    try:
        schemes.integrate(initial, cfg, cfg.t_final, [(cfg.diagnostic_stride, probe)])
    except BlowUp as exc:
        return series, power, closure, f"BlowUp: {exc}"
    return series, power, closure, None


def run_filter_study(base: RunConfig, output_dir=None) -> FilterStudyResult:
    """Run every scheme/filter variant from shared initial data.

    Emits one spectrum comparison CSV at the final time and one relative
    M3 drift comparison CSV; a failing variant is recorded and the study
    continues with the rest.  The manifest gives each variant's status,
    largest closure defect over the observed states and error.
    """
    initial = build_initial_state(base)
    xi_series, spectra, closure, errors = {}, {}, {}, {}
    for label, scheme, filter_mode in FILTER_STUDY_VARIANTS:
        cfg = replace(base, scheme=scheme, filter=filter_mode)
        xi_series[label], spectra[label], closure[label], error = _run_filter_variant(cfg, initial)
        if error is not None:
            errors[label] = error
    labels = [label for label, *_ in FILTER_STUDY_VARIANTS]

    if output_dir is not None:
        out = Path(output_dir)
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
        status += [(f"closure.{label}", format_float(closure[label])) for label in labels]
        _write_keyvalue(out / "filters_manifest.txt", status)
    return FilterStudyResult(labels=labels, xi_series=xi_series, spectra=spectra, errors=errors)
