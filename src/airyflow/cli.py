"""Command-line entry point.

Subcommands:

* ``run <config>``       -- evolve one configured trajectory
* ``converge <config>``  -- three-level refinement study (kind = converge)
* ``filters <config>``   -- scheme/filter comparison from shared initial data
* ``preset <name> [key=value ...]`` -- run a named preset with overrides

Each writes to ``--out`` if given, else to the config's ``out``, and takes
its options and words in any order.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .errors import AiryflowError, StudyFailed
from .harness import ConvergenceStudyConfig, RunConfig, parse_config, preset_config

#: prints a note: ~3.8 s of preset E at the 26,570 steps/s (reference CPU speed, median of
#: ten 40 s runs) that ``python3 perfbench/run.py --workload preset-e --trace 0`` reads
LONG_RUN_STEPS = 10**5


def _require_out(cfg: RunConfig, flag_out) -> RunConfig:
    """``cfg`` writing to ``--out`` if given, else to its own ``output_dir``."""
    out = flag_out or cfg.output_dir
    if out is None:
        raise AiryflowError("no output directory: set 'out' in the config or pass --out")
    return replace(cfg, output_dir=out)


def _load(args, kind: str):
    """The config file of ``args`` if it is of ``kind``, writing where
    :func:`_require_out` says."""
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    if kind != ("converge" if isinstance(cfg, ConvergenceStudyConfig) else "run"):
        raise AiryflowError(f"'{args.command}' expects a config with kind = {kind}")
    if kind == "converge":
        return replace(cfg, base=_require_out(cfg.base, args.out))
    return _require_out(cfg, args.out)


def _run(cfg: RunConfig) -> int:
    result = harness.run_experiment(cfg)
    print(f"{result.status}: {result.steps_completed}/{cfg.steps} steps -> {cfg.output_dir}")
    if result.rows:
        last = result.rows[-1]
        print(f"final diagnostics: t={last.time:g} xi={last.xi:.3e} max|k|={last.max_curvature:.4g}")
    return 0 if result.status == "completed" else 1


def _cmd_run(args) -> int:
    return _run(_load(args, "run"))


def _cmd_converge(args) -> int:
    cfg = _load(args, "converge")
    out = cfg.base.output_dir
    try:
        row = harness.run_convergence_study(cfg)
    except StudyFailed as exc:
        for message in exc.errors.values():
            print(f"FAILED {message}")
        print(f"wrote {out / 'convergence_manifest.txt'}")
        return 1
    print(
        f"{row.curve}/{row.scheme} t0={row.t0:g}: "
        f"err {row.err_coarse:.6g} -> {row.err_fine:.6g}, order {row.order:.4f}"
    )
    print(f"wrote {out / 'convergence.csv'} and {out / 'convergence_manifest.txt'}")
    return 0


def _cmd_filters(args) -> int:
    cfg = _load(args, "run")
    out = cfg.output_dir
    result = harness.run_filter_study(cfg)
    for label in result.labels:
        series = result.xi_series[label]
        peak = max((abs(v) for _, v in series), default=float("nan"))
        note = f" FAILED ({result.errors[label]})" if label in result.errors else ""
        print(f"{label}: max|xi| = {peak:.4g}{note}")
    print(f"wrote {out / 'filters_spectra.csv'}, {out / 'filters_xi.csv'} "
          f"and {out / 'filters_manifest.txt'}")
    return 0 if not result.errors else 1


def _cmd_preset(args) -> int:
    cfg = _require_out(preset_config(args.name, **harness.parse_overrides(args.overrides)),
                       args.out)
    if cfg.steps >= LONG_RUN_STEPS:
        print(f"note: {args.name.upper()} runs {cfg.steps} steps")
    return _run(cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="airyflow", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, summary in (("run", _cmd_run, "evolve one configured trajectory"),
                                ("converge", _cmd_converge, "three-level refinement study"),
                                ("filters", _cmd_filters, "scheme/filter comparison study")):
        command = sub.add_parser(name, help=summary)
        command.add_argument("config")
        command.add_argument("--out", default=None)
        command.set_defaults(func=func)

    preset = sub.add_parser("preset", help=f"run a named preset ({', '.join(harness.PRESETS)})")
    preset.add_argument("name")
    preset.add_argument("overrides", nargs="*", metavar="key=value")
    preset.add_argument("--out", default=None)
    preset.set_defaults(func=_cmd_preset)
    return parser


def main(argv=None) -> int:
    """Run the subcommand of ``argv`` (``sys.argv[1:]`` for None) and return its exit code.

    ``parse_known_args`` leaves a preset's words after ``--out`` over: they
    are overrides too.  Any other word or option left over is refused as
    argparse refuses it, with exit code 2.
    """
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "preset":
        args.overrides += [word for word in extra if not word.startswith("-")]
        extra = [word for word in extra if word.startswith("-") and word != "--"]
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (AiryflowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
