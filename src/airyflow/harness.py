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
from dataclasses import astuple, dataclass, field, fields, replace
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import diagnostics, geometry, schemes, spectral
from .errors import BlowUp, ClosureViolation, ParseError, StudyFailed, ValidationError
from .geometry import ThetaLState
from .schemes import SchemeConfig

#: the run settings with their types, in config.txt's order: the keys a preset override may set
_RUN_KEYS = dict(n=int, dt=float, t_final=float, scheme=str, filter=str,
                 snapshot_stride=int, diagnostic_stride=int, closure_tol=float)
#: every config key with its type
_KEYS = dict(kind=str, shape=str, **geometry.SHAPE_PARAMS, **_RUN_KEYS, axis=str, t0=float,
             out=str)

#: scheme/filter variants exercised by the filter study, in output order
FILTER_STUDY_VARIANTS = (("ADB", "adb", "none"), ("ADBDPR", "adb", "dpr"),
                         ("ADBK", "adb", "krasny"), ("CN", "cn", "none"), ("CNDPR", "cn", "dpr"),
                         ("CNK", "cn", "krasny"), ("CNADB", "cnadb", "none"))

#: observed states per :func:`diagnostics.observe` pass, chosen on preset E; larger blocks risk
#: glibc trimming a pass's temporaries and faulting them back, as the heap layout decides
OBSERVE_BLOCK = 12

#: named initial curves with their reference run settings, as config keys
PRESETS = {
    "E": dict(shape="ellipse", a=1.0, b=0.5, n=512, dt=5e-4, t_final=2.0),
    "E1": dict(shape="ellipse", a=1.0, b=np.sqrt(2.0) / 2.0, n=256, dt=1e-3, t_final=2.0),
    "E2": dict(shape="ellipse", a=1.0, b=2.0 ** 0.25 / 2.0, n=256, dt=5e-4, t_final=2.0),
    # the long presets loosen closure_tol: the closure integral drifts at the
    # trajectory's accumulated-error level (PC3 reaches ~7e-3 near T=4.5,
    # the cardioid ~3e-6), which is accuracy-limited, not a solver defect
    "PC3": dict(shape="pc3", n=512, dt=5e-6, t_final=4.5, closure_tol=2e-2),
    "CARDIOID": dict(shape="cardioid", n=512, dt=1e-5, t_final=5.0, closure_tol=1e-4),
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
    closure_tol: float = 1e-8  # the largest closure defect an observed state may have
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
        return [("shape", self.shape), *sorted(self.shape_params.items()),
                *((key, getattr(self, key)) for key in _RUN_KEYS)]


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


def _convert(key: str, value: str):
    """The value typed as :data:`_KEYS` says; a ValueError names the key and the type.

    Config text and preset overrides become numbers only here, so nan and
    inf are rejected here for every float setting.
    """
    kind = _KEYS[key]
    if kind is str:
        return value
    try:
        number = kind(value)
        if kind is float and not math.isfinite(number):
            raise ValueError(value)
    except ValueError:
        expects = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{key} expects {expects}, got {value!r}") from None
    return number


def _run_config(values: dict, **fields) -> RunConfig:
    """RunConfig of config settings ``values`` and ``fields``; scheme is cnadb unless set."""
    shape_params = {k: v for k, v in values.items() if k in geometry.SHAPE_PARAMS}
    settings = {k: v for k, v in values.items() if k not in geometry.SHAPE_PARAMS}
    return RunConfig(shape_params=shape_params, **{"scheme": "cnadb", **settings, **fields})


def parse_config(text: str):
    """Parse config text into a RunConfig or ConvergenceStudyConfig.

    Unknown keys and violated invariants raise :class:`ValidationError`;
    malformed lines raise :class:`ParseError` with line/column.
    """
    values: dict = {}
    for lineno, col, key, value in _parse_lines(text):
        if key not in _KEYS:
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
    run = _run_config(values, output_dir=out)
    if kind == "run":
        if axis is not None or t0 is not None:
            raise ValidationError("'axis'/'t0' are only valid with kind = converge")
        return run
    return ConvergenceStudyConfig(base=run, axis=axis, comparison_time=t0)


def _check_override(key: str) -> None:
    if key not in _RUN_KEYS:
        raise ValidationError(f"preset override for unknown field {key!r}")


def preset_config(name: str, **overrides) -> RunConfig:
    """RunConfig for a named preset; overrides may set its run settings and ``output_dir``."""
    key = name.upper()
    if key not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    for field_name in sorted(overrides.keys() - {"output_dir"}):
        _check_override(field_name)
    return _run_config(PRESETS[key], **overrides)


def parse_overrides(pairs) -> dict:
    """Typed preset overrides from ``key=value`` strings, keys typed as in a config."""
    overrides = {}
    for pair in pairs:
        key, sep, value = (part.strip() for part in pair.partition("="))
        if not sep:
            raise ValidationError(f"override {pair!r} is not key=value")
        _check_override(key)
        if key in overrides:
            raise ValidationError(f"repeated override {key!r}")
        overrides[key] = _convert(key, value)
    return overrides


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
    """How one trajectory ended, built only by :meth:`_BlockObserver.run`: ``error`` names
    the step S it failed at and ``steps_completed`` is S - 1 (0 at step 0), or the last
    recorded step if "interrupted"; ``final`` is the state at ``t_final`` once completed."""

    status: str  # "completed" | "blowup" | "closure" | "interrupted"
    steps_completed: int
    rows: list
    error: Optional[str] = None
    final: Optional[ThetaLState] = None


def build_initial_state(cfg: RunConfig) -> ThetaLState:
    """Catalog shape -> equal-arc-length samples -> tangent-angle state."""
    curve = geometry.catalog_curve(cfg.shape, **cfg.shape_params)
    points, length = geometry.resample_equal_arclength(curve, cfg.n)
    return geometry.extract_theta_l(points, length)


class _BlockObserver:
    """Diagnostics rows and snapshot files of one trajectory from ``initial``,
    read off blocks of up to :data:`OBSERVE_BLOCK` observed phi rows by one
    :func:`diagnostics.observe` pass each, and the run's closure check.

    :meth:`run` is the one runner of every trajectory; :meth:`watch`
    gives its callback of one output, "rows" or "snapshots".  A step due
    for both is copied once into the run's (OBSERVE_BLOCK, N) buffer, and
    one that finds it full flushes it first; a row's time is
    ``t0 + step * dt``, as in :func:`schemes.integrate`.  A flush compares
    each state's closure defect with ``closure_tol`` (``math.inf`` checks
    nothing) and raises :class:`ClosureViolation` for the first state
    beyond it, after recording the states before it.  The step-0 state
    sets the baselines of ``xi`` and ``delta_n``.  A study reads ``closure``
    (the largest) and the filter study ``power`` (the last recorded);
    ``recorded`` is the last recorded step, where an interrupted run ends.
    """

    def __init__(self, cfg: RunConfig, initial: ThetaLState, closure_tol: float):
        self.cfg, self.initial, self.closure_tol = cfg, initial, closure_tol
        self.block = np.empty((OBSERVE_BLOCK, cfg.n))
        self.pending: dict = {}  # step -> its outputs, in the order of the buffer's rows
        self.rows: list[DiagnosticsRow] = []
        self.written: list[Path] = []
        self.power, self.closure, self.recorded = None, 0.0, 0
        # six decimals, or as many as tell steps of dt < 1e-6 apart
        self.decimals = max(6, math.ceil(-math.log10(cfg.dt)))

    def watch(self, output: str):
        def callback(step: int, phi: np.ndarray) -> None:
            if step not in self.pending:
                if len(self.pending) == OBSERVE_BLOCK:
                    self.flush()
                self.block[len(self.pending)] = phi
                self.pending[step] = set()
            self.pending[step].add(output)

        return callback

    def run(self, observers) -> RunResult:
        """:func:`schemes.integrate` to ``cfg.t_final``, the last flush whatever stopped it,
        and how the run ended: "interrupted" at ``recorded`` by a ``KeyboardInterrupt`` in
        either, any failure found being its ``error``; else a closure failure beats a blow-up."""
        final = failure = None
        try:
            try:
                final = schemes.integrate(self.initial, self.cfg, self.cfg.t_final, observers)
            except (BlowUp, ClosureViolation) as exc:
                failure = exc
            finally:  # also under an interrupt, which the flush's failure must not replace
                try:
                    self.flush()
                except ClosureViolation as exc:
                    failure = exc
        except KeyboardInterrupt:
            return RunResult("interrupted", self.recorded, self.rows, failure and str(failure))
        if failure is not None:
            return RunResult("blowup" if isinstance(failure, BlowUp) else "closure",
                             max(failure.step - 1, 0), self.rows, str(failure))
        return RunResult("completed", self.cfg.steps, self.rows, final=final)

    def flush(self) -> None:
        steps, self.pending = self.pending, {}
        if not steps:
            return
        size, initial = len(steps), self.initial
        time = initial.time + np.fromiter(steps, float, size) * self.cfg.dt
        obs = diagnostics.observe(self.block[:size], initial.length, initial.anchor)
        beyond = obs.closure > self.closure_tol
        count = int(beyond.argmax()) if beyond.any() else size
        if count:  # the rows and snapshots of the states before the first open one
            triple, k, n = obs.triple, obs.k, obs.k.shape[1]
            if 0 in steps:
                self.m3_baseline, self.r0 = triple.m3[0], obs.radius[0]
            self.power = obs.power[count - 1]
            self.closure = max(self.closure, float(obs.closure[:count].max()))
            # the farthest node from the centroid: sqrt is monotone, so the max
            # is taken over the squared distances
            offset = obs.points.transpose(2, 0, 1) - obs.centroid.T[:, :, None]
            offset *= offset
            radial = np.sqrt((offset[0] + offset[1]).max(axis=1))
            columns = (time, triple.m1, triple.m2, triple.m3,
                       diagnostics.m3_drift(triple.m3, self.m3_baseline),
                       np.maximum(k.max(axis=1), -k.min(axis=1)), radial - self.r0, obs.radius,
                       obs.power[:, 3 * n // 4:].max(axis=1), *obs.centroid.T)  # tail: m > N/4
            rows = zip(*(column.tolist() for column in columns))
            for i, ((step, outputs), row) in enumerate(zip(list(steps.items())[:count], rows)):
                self.recorded = step
                if "rows" in outputs:
                    self.rows.append(DiagnosticsRow(*row))
                if "snapshots" in outputs:
                    tag = f"{row[0]:.{self.decimals}f}"
                    curve, spectrum = (self.cfg.output_dir / "snapshots" / f"curve_t{tag}.csv",
                                       self.cfg.output_dir / f"spectrum_t{tag}.csv")
                    _write_csv(curve, ("alpha", "x", "y", "k"),
                               np.column_stack((spectral.grid_nodes(n), obs.points[i], k[i])))
                    _write_csv(spectrum, ("m", "power"), np.column_stack(
                        (spectral.symmetric_wavenumbers(n), obs.power[i])))
                    self.written += [curve, spectrum]
        if count < size:
            raise ClosureViolation(list(steps)[count], float(time[count]),
                                   float(obs.closure[count]), self.closure_tol)


def _write_csv(path: Path, columns, rows) -> None:
    """A header line, then each row with every cell as :func:`_format_cell` writes it.

    ``rows`` is an array or an iterable of rows.  A table of numbers
    becomes one float array, and one vectorized ``+ 0.0`` normalizes its
    -0.0; the whole table is then written with one ``%.17g`` format per
    cell, which prints an int below 2**53 as ``str`` does.  A table that
    holds text (a curve name, the empty cells of a truncated series) is
    written cell by cell.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    table = np.asarray(rows)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        if table.dtype.kind in "biuf":
            line = ",".join(["%.17g"] * len(columns)) + "\n"
            handle.write((line * len(table)) % tuple((table + 0.0).ravel().tolist()))
        else:
            for row in rows:
                handle.write(",".join(map(_format_cell, row)) + "\n")


def _format_cell(cell) -> str:
    return format_float(cell) if isinstance(cell, (float, np.floating)) else str(cell)


def _write_keyvalue(path: Path, pairs) -> None:
    """One ``key = value`` line per pair, each value as :func:`_format_cell` writes it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for key, value in pairs:
            handle.write(f"{key} = {_format_cell(value)}\n")


def run_experiment(cfg: RunConfig) -> RunResult:
    """Run one trajectory through :meth:`_BlockObserver.run` and write its output bundle.

    Writes diagnostics.csv, snapshot CSVs, the resolved config echo, and a
    manifest recording termination status, the largest |xi| (and its time)
    and tail_max over the rows, and every emitted file.  Observed states
    are read :data:`OBSERVE_BLOCK` at a time, so the run may step past a
    state whose curve does not close before it is read; that state still
    ends the run as status "closure", also over a later blow-up ("blowup").
    Both keep the outputs of the states before the failure, and the
    manifest's ``error`` is the exception's message, which names its step.
    A run that ends "interrupted" writes both too, with ``steps_completed``
    the last recorded step and any failure found on the way as ``error``,
    then raises ``KeyboardInterrupt``.  Returns the run's :class:`RunResult`.
    """
    if cfg.output_dir is None:
        raise ValidationError("run_experiment requires output_dir")
    out_dir = cfg.output_dir
    _write_keyvalue(out_dir / "config.txt", cfg.echo_pairs())

    started = _time.perf_counter()
    initial = build_initial_state(cfg)
    setup = _time.perf_counter() - started
    observer = _BlockObserver(cfg, initial, cfg.closure_tol)
    result = observer.run([(cfg.diagnostic_stride, observer.watch("rows")),
                           (cfg.snapshot_stride, observer.watch("snapshots"))])
    wall = _time.perf_counter() - started

    rows = result.rows
    diag_path = out_dir / "diagnostics.csv"
    _write_csv(diag_path, DIAGNOSTICS_COLUMNS, rows)

    outputs = [out_dir / "config.txt", diag_path, *observer.written]
    manifest = [("status", result.status), ("steps_completed", result.steps_completed),
                ("steps_requested", cfg.steps), ("wall_time_s", wall), ("setup_time_s", setup)]
    if rows:  # the run's extremes, read off its rows
        peak = max(rows, key=lambda row: abs(row.xi))
        manifest += [("max_abs_xi", abs(peak.xi)),
                     ("max_abs_xi_time", peak.time),
                     ("max_tail", max(row.tail_max for row in rows))]
    if result.error:
        manifest.append(("error", result.error))
    manifest += [(f"output.{i}", path.relative_to(out_dir)) for i, path in enumerate(outputs)]
    _write_keyvalue(out_dir / "manifest.txt", manifest)
    if result.status == "interrupted":
        raise KeyboardInterrupt
    return result


# ---------------------------------------------------------------------------
# studies


def _run_study(trajectories, key: str, manifest: Optional[Path]):
    """Run a study's (label, config, initial state, outputs, error context)
    trajectories in order through :meth:`_BlockObserver.run`, with no closure
    check and each output watched at ``diagnostic_stride``, up to the first
    that ends "interrupted"; a failure's error reads ``"CONTEXT: message"``.

    ``manifest``, if given, gets ``status = interrupted`` if one was, then
    ``KEY.LABEL`` (ok | failed | interrupted), ``steps_completed.LABEL`` and
    ``error.LABEL`` of each trajectory run, then ``closure.LABEL`` (the
    largest defect over its rows) of each finished one with rows.  Raises
    ``KeyboardInterrupt`` after an interrupt, else returns the results,
    observers and errors by label.
    """
    results, observers, errors = {}, {}, {}
    for label, cfg, initial, outputs, context in trajectories:
        observer = observers[label] = _BlockObserver(cfg, initial, math.inf)
        result = results[label] = observer.run(
            [(cfg.diagnostic_stride, observer.watch(output)) for output in outputs])
        if result.error:
            errors[label] = f"{context}: {result.error}"
        if result.status == "interrupted":
            break
    interrupted = result.status == "interrupted"
    if manifest is not None:
        word = {"completed": "ok", "interrupted": "interrupted"}
        _write_keyvalue(manifest, [
            *[("status", "interrupted")] * interrupted,
            *((f"{key}.{label}", word.get(r.status, "failed")) for label, r in results.items()),
            *((f"steps_completed.{label}", r.steps_completed) for label, r in results.items()),
            *((f"error.{label}", message) for label, message in errors.items()),
            *((f"closure.{label}", observers[label].closure) for label, r in results.items()
              if r.rows and r.status != "interrupted")])
    if interrupted:
        raise KeyboardInterrupt
    return results, observers, errors


@dataclass(frozen=True)
class ConvergenceRow:
    """One row of a refinement table: the two difference norms and the order."""

    curve: str
    scheme: str
    t0: float
    err_coarse: float
    err_fine: float
    order: float


def run_convergence_study(study: ConvergenceStudyConfig) -> ConvergenceRow:
    """Run the three refinement levels and report the observed order.

    Levels differ by factors of 2 in dt (axis "time") or n (axis
    "space"); states are compared at t0 on the coarser grid of each pair.
    A level that fails is recorded and the study goes on with the rest.
    With the base config's ``output_dir``, ``convergence_manifest.txt`` there
    gives each level's status and steps completed, and ``convergence.csv``
    is written only when all three levels complete.  Raises
    :class:`StudyFailed` after any level failed.  All three initial states
    are built first.  An interrupted level (at step 0: a level records no
    rows) ends the study as :func:`_run_study` says, with no CSV.
    """
    output_dir = study.base.output_dir
    setting = "dt = {0.dt!r}" if study.axis == "time" else "n = {0.n}"
    levels = [(level, cfg, build_initial_state(cfg), (), f"level {level} ({setting.format(cfg)})")
              for level, cfg in enumerate(study.level_configs())]
    results, _, errors = _run_study(levels, "level", output_dir and (
        output_dir / "convergence_manifest.txt"))
    if errors:
        raise StudyFailed(errors)
    states = [result.final for result in results.values()]
    err_coarse = diagnostics.state_difference_norm(states[0], states[1])
    err_fine = diagnostics.state_difference_norm(states[1], states[2])
    order = diagnostics.convergence_order(err_coarse, err_fine)
    row = ConvergenceRow(study.base.shape, study.base.scheme, study.comparison_time,
                         err_coarse, err_fine, order)
    if output_dir is not None:
        _write_csv(output_dir / "convergence.csv",
                   [column.name for column in fields(ConvergenceRow)], [astuple(row)])
    return row


@dataclass
class FilterStudyResult:
    labels: list
    xi_series: dict  # label -> list of (time, xi)
    spectra: dict  # label -> power array at t_final
    errors: dict  # label -> error string for failed runs


def run_filter_study(base: RunConfig) -> FilterStudyResult:
    """Run every scheme/filter variant from shared initial data.

    A failing variant is recorded and the study continues with the rest.
    With ``base.output_dir``, writes there one spectrum comparison CSV at
    the final time, one relative M3 drift comparison CSV and a manifest
    of each variant's status, largest closure defect over the observed
    states and error.  The last power spectrum is the final state's, or
    the last observed one's after a failure.  An interrupted variant ends
    the study as :func:`_run_study` says, with no CSV.
    """
    initial, out = build_initial_state(base), base.output_dir
    variants = [(label, replace(base, scheme=scheme, filter=filter_mode), initial, ("rows",),
                 "BlowUp") for label, scheme, filter_mode in FILTER_STUDY_VARIANTS]
    results, observers, errors = _run_study(variants, "variant", out and (
        out / "filters_manifest.txt"))
    labels = list(results)
    xi_series = {label: [(row.time, row.xi) for row in r.rows] for label, r in results.items()}
    spectra = {label: observer.power for label, observer in observers.items()}

    if out is not None:
        m = spectral.symmetric_wavenumbers(base.n)
        _write_csv(out / "filters_spectra.csv", ("m", *(f"power_{label}" for label in labels)),
                   np.column_stack((m, *(spectra[label] for label in labels))))
        # every variant is observed at the same steps, so each series is a
        # prefix of the longest; a blown-up variant's late cells stay empty
        longest = max(xi_series.values(), key=len)
        _write_csv(out / "filters_xi.csv", ("time", *(f"xi_{label}" for label in labels)),
                   zip_longest([t for t, _ in longest],
                               *([xi for _, xi in xi_series[label]] for label in labels),
                               fillvalue=""))
    return FilterStudyResult(labels=labels, xi_series=xi_series, spectra=spectra, errors=errors)
