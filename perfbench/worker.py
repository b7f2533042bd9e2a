"""Run one repeat of one benchmark workload in this fresh process.

    python3 perfbench/worker.py --workload preset-e [--trace] [--smoke]

``run.py`` starts one worker per repeat, so every repeat pays the start-up a
user pays, and ``ru_maxrss`` is the peak of a process that ran the workload
once.  The worker imports airyflow from this checkout's ``src``, times the
workload's harness call, checks the outputs, and prints one JSON object.
Untraced repeats also sample the CPU's speed (``speedometer.py``) and give
setup and the rest of the run at reference speed.
Traced repeats also write their spans to ``.bench_out/trace/<tag>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import airyflow  # noqa: E402
from airyflow import harness, spectral  # noqa: E402
from airyflow.diagnostics import conserved_quantities  # noqa: E402  (unwrapped)
from airyflow.errors import AiryflowError  # noqa: E402

from probes import Probes  # noqa: E402
from speedometer import Speedometer  # noqa: E402

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# workloads: the paper's fixed configs; smoke mode shrinks only the horizon


def preset_e(out_dir: Path, smoke: bool):
    overrides = {"t_final": 0.1} if smoke else {}
    return harness.run_experiment(harness.preset_config("E", output_dir=out_dir, **overrides))


def filter_study(out_dir: Path, smoke: bool):
    # criterion-4 config; unfiltered adb blows up at step 2010 (t=0.201) by design,
    # so the smoke horizon stays past it
    base = harness.RunConfig(shape="ellipse", shape_params=dict(a=1.0, b=0.5), n=512,
                             dt=1e-4, t_final=0.25 if smoke else 0.5, scheme="adb",
                             diagnostic_stride=100)
    return harness.run_filter_study(base)


def converge_space(out_dir: Path, smoke: bool):
    t0 = 0.002 if smoke else 0.01
    base = harness.RunConfig(shape="cardioid", n=512, dt=1e-5, t_final=t0, scheme="cnadb")
    study = harness.ConvergenceStudyConfig(base=base, axis="space", comparison_time=t0)
    return harness.run_convergence_study(study)


# ---------------------------------------------------------------------------
# output checks: (name, ok, detail) triples, and the run's max |xi|


def check_preset_e(result, probes, out_dir):
    m1 = max(abs(row.m1 - TWO_PI) for row in result.rows)
    written = all((out_dir / name).is_file() for name in ("manifest.txt", "diagnostics.csv"))
    checks = [
        ("status", result.status == "completed", f"status {result.status}"),
        ("M1", m1 <= 1e-9, f"max |M1 - 2pi| = {m1:.2e} <= 1e-9"),
        ("outputs", written, "manifest.txt and diagnostics.csv written"),
    ]
    max_xi = max(abs(row.xi) for row in result.rows) if result.status == "completed" else None
    return checks, max_xi


def check_filter_study(result, probes, out_dir):
    failed = sorted(result.errors)
    xi_dpr = max(abs(xi) for _, xi in result.xi_series["ADBDPR"])
    n = result.spectra["ADB"].size
    high = np.abs(spectral.symmetric_wavenumbers(n)) > n // 4
    tail_adb = float(np.max(result.spectra["ADB"][high]))
    tail_dpr = float(np.max(result.spectra["ADBDPR"][high]))
    checks = [
        ("failures", failed == ["ADB"], f"failed variants {failed} == ['ADB']"),
        ("ADBDPR drift", "ADBDPR" not in result.errors and xi_dpr <= 0.01,
         f"ADBDPR max |xi| = {xi_dpr:.4f} <= 0.01"),
        ("tail", tail_adb > tail_dpr, f"ADB tail {tail_adb:.2e} > ADBDPR tail {tail_dpr:.2e}"),
    ]
    completed = [label for label in result.labels if label not in result.errors]
    max_xi = max((abs(xi) for label in completed for _, xi in result.xi_series[label]),
                 default=None)
    return checks, max_xi


def check_converge_space(result, probes, out_dir):
    checks = [("spatial order", result.order >= 6.0, f"spatial order {result.order:.2f} >= 6")]
    # the study keeps no diagnostics series: take each level's drift at t0
    drifts = []
    for record in probes.trajectories:
        if record["final"] is not None:
            m3_start = conserved_quantities(record["initial"]).m3
            drifts.append(abs((conserved_quantities(record["final"]).m3 - m3_start) / m3_start))
    return checks, max(drifts)


WORKLOADS = {
    "preset-e": (preset_e, check_preset_e),
    "filter-study": (filter_study, check_filter_study),
    "converge-space": (converge_space, check_converge_space),
}


def write_trace(path: Path, workload: str, probes: Probes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = probes.spans[0][2] if probes.spans else 0.0
    record = {
        "workload": workload,
        "columns": ["id", "parent", "name", "start_s", "end_s"],
        "spans": [[i, parent, name, start - origin, end - origin]
                  for i, (name, parent, start, end) in enumerate(probes.spans)],
    }
    path.write_text(json.dumps(record))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--tag", default="repeat")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not Path(airyflow.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"airyflow was imported from {airyflow.__file__}, not from {SRC}")
    run, check = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    # traced repeats are not sampled: the sampling loop would land inside spans
    meter = None if args.trace else Speedometer()
    probes = Probes(trace=args.trace, meter=meter)
    probes.install()

    result, error = None, None
    with meter or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            result = run(out_dir, args.smoke)
        except AiryflowError as exc:  # e.g. a ClosureViolation escaping run_experiment
            error = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks, max_xi = ([("harness call", False, error)], None) if result is None \
        else check(result, probes, out_dir)
    shutil.rmtree(out_dir)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "ok": all(ok for _, ok, _ in checks),
        "checks": [[name, bool(ok), detail] for name, ok, detail in checks],
        "wall_raw_s": wall_s,
        "setup_raw_s": probes.setup_s,
        "steps": probes.steps_completed(),
        "trajectories": len(probes.trajectories),
        "completed": sum(r["error"] is None for r in probes.trajectories),
        "peak_rss_mb": peak_rss_mb,
        "max_xi": max_xi,
        "numpy": np.__version__,
    }
    if meter is not None:
        report["wall_raw_s"] -= meter.busy_s()
        report["setup_raw_s"] -= meter.busy_s("setup")
        report["setup_s"] = meter.at_reference("setup", probes.setup_s)
        report["run_s"] = meter.at_reference("run", wall_s - probes.setup_s)
        ticks = meter.mean_tick_s("setup"), meter.mean_tick_s("run")
        report["tick_ratio"] = ticks[0] / ticks[1] if all(ticks) else None
    if args.trace:
        report["layers"] = probes.layer_metrics()
        trace_path = OUT / "trace" / f"{args.tag}.json"
        write_trace(trace_path, args.workload, probes)
        report["trace_file"] = str(trace_path)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
