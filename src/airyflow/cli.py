"""Command-line entry point.

Subcommands:

* ``run <config>``       -- evolve one configured trajectory
* ``converge <config>``  -- three-level refinement study (kind = converge)
* ``filters <config>``   -- scheme/filter comparison from shared initial data
* ``preset <name> [key=value ...]`` -- run a named preset with overrides

``--out`` chooses (or overrides) the output directory; ``--parallel``
bounds concurrent runs inside a study.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .errors import AiryflowError
from .harness import ConvergenceStudyConfig, RunConfig, parse_config, preset_config


def _read_config(path: str):
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _require_out(cfg_out, flag_out):
    out = Path(flag_out) if flag_out else cfg_out
    if out is None:
        raise AiryflowError("no output directory: set 'out' in the config or pass --out")
    return Path(out)


def _cmd_run(args) -> int:
    cfg = _read_config(args.config)
    if not isinstance(cfg, RunConfig):
        raise AiryflowError("'run' expects a config with kind = run")
    cfg = replace(cfg, output_dir=_require_out(cfg.output_dir, args.out))
    result = harness.run_experiment(cfg)
    print(f"{result.status}: {result.steps_completed}/{cfg.steps} steps -> {result.output_dir}")
    if result.rows:
        last = result.rows[-1]
        print(f"final diagnostics: t={last.time:g} xi={last.xi:.3e} max|k|={last.max_curvature:.4g}")
    return 0 if result.status == "completed" else 1


def _cmd_converge(args) -> int:
    cfg = _read_config(args.config)
    if not isinstance(cfg, ConvergenceStudyConfig):
        raise AiryflowError("'converge' expects a config with kind = converge")
    out = _require_out(cfg.base.output_dir, args.out)
    row = harness.run_convergence_study(cfg, output_dir=out, parallel=args.parallel)
    print(
        f"{row.curve}/{row.scheme} t0={row.t0:g}: "
        f"err {row.err_coarse:.6g} -> {row.err_fine:.6g}, order {row.order:.4f}"
    )
    print(f"wrote {out / 'convergence.csv'}")
    return 0


def _cmd_filters(args) -> int:
    cfg = _read_config(args.config)
    if not isinstance(cfg, RunConfig):
        raise AiryflowError("'filters' expects a config with kind = run")
    out = _require_out(cfg.output_dir, args.out)
    result = harness.run_filter_study(cfg, output_dir=out, parallel=args.parallel)
    for label in result.labels:
        series = result.xi_series[label]
        peak = max((abs(v) for _, v in series), default=float("nan"))
        note = f" FAILED ({result.errors[label]})" if label in result.errors else ""
        print(f"{label}: max|xi| = {peak:.4g}{note}")
    print(f"wrote {out / 'filters_spectra.csv'} and {out / 'filters_xi.csv'}")
    return 0 if not result.errors else 1


def _cmd_preset(args) -> int:
    cfg = preset_config(args.name, **harness.parse_overrides(args.overrides))
    cfg = replace(cfg, output_dir=_require_out(None, args.out))
    if harness.is_extended_preset(args.name):
        print(f"note: {args.name.upper()} is an extended preset ({cfg.steps} steps)")
    result = harness.run_experiment(cfg)
    print(f"{result.status}: {result.steps_completed}/{cfg.steps} steps -> {result.output_dir}")
    return 0 if result.status == "completed" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="airyflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evolve one configured trajectory")
    run.add_argument("config")
    run.add_argument("--out", default=None)
    run.set_defaults(func=_cmd_run)

    converge = sub.add_parser("converge", help="three-level refinement study")
    converge.add_argument("config")
    converge.add_argument("--out", default=None)
    converge.add_argument("--parallel", type=int, default=1)
    converge.set_defaults(func=_cmd_converge)

    filters = sub.add_parser("filters", help="scheme/filter comparison study")
    filters.add_argument("config")
    filters.add_argument("--out", default=None)
    filters.add_argument("--parallel", type=int, default=1)
    filters.set_defaults(func=_cmd_filters)

    preset = sub.add_parser("preset", help="run a named preset (E, E1, E2, PC3, CARDIOID)")
    preset.add_argument("name")
    preset.add_argument("overrides", nargs="*", metavar="key=value")
    preset.add_argument("--out", default=None)
    preset.set_defaults(func=_cmd_preset)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AiryflowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
