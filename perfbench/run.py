"""airyflow benchmark: three paper workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload preset-e --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Each repeat of a workload runs in a fresh Python process (``worker.py``).
Repeats run one after another until the next would end past ``--seconds``
(at least three).  ``--trace 0`` prints the end-to-end metrics, as medians
over untraced repeats, with times given at a reference CPU speed sampled
during each repeat (``speedometer.py``).  ``--trace 1`` alternates untraced
and traced repeats and prints the per-layer metrics, as medians over traced
repeats, with the tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where an attempt is one
repeat and a repeat fails when its harness call raises or an output check
fails.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("preset-e", "filter-study", "converge-space")
MIN_REPEATS = 3
TIME_LIMIT_S = 170.0  # a run must end within 180 s

# One BLAS thread per worker.  On 2 cores a second OpenBLAS thread only spins in
# resampling's matrix-vector products: on a 2-vCPU Xeon VM, converge-space took
# 9.3 s of CPU for 6.0 s of wall time with two threads, 6.0 s for 5.8 s with one.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# metric names and units, as BENCHMARK.json declares them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_worker(workload: str, traced: bool, smoke: bool, tag: str, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--tag", tag]
    cmd += ["--trace"] * traced + ["--smoke"] * smoke
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} repeat {tag} exceeded {timeout:.0f} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def measure(workload: str, seconds: float, trace: bool, smoke: bool,
            rng: random.Random, started: float) -> list:
    """Run repeats until the next would end past ``seconds``; return their reports."""
    first_traced = trace and rng.random() < 0.5
    deadline = time.perf_counter() + seconds
    repeats, longest = [], 0.0
    while True:
        # trace 1 alternates untraced and traced repeats; the seed picks which goes first
        traced = trace and (len(repeats) % 2 == 0) == first_traced
        begin = time.perf_counter()
        timeout = TIME_LIMIT_S - (begin - started)
        if timeout <= 0:
            raise BenchmarkError(f"{workload}: out of time after {len(repeats)} repeats")
        tag = f"{workload}-{len(repeats)}"
        repeats.append(run_worker(workload, traced, smoke, tag, timeout))
        now = time.perf_counter()
        longest = max(longest, now - begin)
        enough = len(repeats) >= (2 if smoke else MIN_REPEATS)
        if smoke and enough:
            break
        if enough and (now + longest > deadline or now + longest > started + TIME_LIMIT_S):
            break
    return repeats


def end_to_end(reports: list) -> dict:
    """Per-repeat samples; times are at reference speed (see speedometer.py)."""
    return {
        "wall_s": [r["setup_s"] + r["run_s"] for r in reports],
        "setup_s": [r["setup_s"] for r in reports],
        "steps_per_s": [r["steps"] / r["run_s"] for r in reports],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
        "max_xi": [r["max_xi"] for r in reports],
        "completed_frac": [r["completed"] / r["trajectories"] for r in reports],
    }


def per_layer(traced: list, untraced: list) -> dict:
    samples = {name: [r["layers"][name] for r in traced] for name in PER_LAYER
               if name != "trace.overhead_s"}
    overhead = (statistics.median(r["wall_raw_s"] for r in traced)
                - statistics.median(r["wall_raw_s"] for r in untraced))
    samples["trace.overhead_s"] = [overhead]
    return samples


def summarize(repeats: list, trace: bool) -> tuple[dict, dict]:
    """Median of each metric over the repeats that passed, and its samples."""
    passed = [r for r in repeats if r["ok"]]
    untraced = [r for r in passed if not r["trace"]]
    traced = [r for r in passed if r["trace"]]
    if not untraced or (trace and not traced):
        return {}, {}
    samples = per_layer(traced, untraced) if trace else end_to_end(untraced)
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": statistics.median(values), "unit": units[name]}
               for name, values in samples.items()}
    return metrics, samples


def facts(seed: int, args, repeats: list) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "repeats": len(repeats),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": repeats[0]["numpy"] if repeats else None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "worker_env": WORKER_ENV,
    }


def report(workload: str, repeats: list, metrics: dict, samples: dict) -> None:
    """Readable lines ahead of the JSON result: checks, then each metric's spread."""
    for i, r in enumerate(repeats):
        kind = "traced" if r["trace"] else "untraced"
        for name, ok, detail in r["checks"]:
            print(f"# {workload} repeat {i} ({kind}) [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if "trace_file" in r:
            print(f"# {workload} repeat {i} spans: {r['trace_file']}")
    for name, metric in metrics.items():
        values = samples[name]
        spread = ""
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"  (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})"
        print(f"# {workload} {name} = {metric['value']:.6g} {metric['unit']}{spread}")
    untraced = [r for r in repeats if r["ok"] and not r["trace"]]
    if "wall_s" in metrics and untraced:
        for name in ("wall_raw_s", "setup_raw_s"):
            print(f"# {workload} {name} = {statistics.median(r[name] for r in untraced):.6g} s"
                  "  (as measured, not at reference speed)")
        ratios = [r["tick_ratio"] for r in untraced if r["tick_ratio"] is not None]
        if ratios:
            print(f"# {workload} tick_ratio = {statistics.median(ratios):.4g}"
                  "  (speed-sample time in setup / in the rest of the run)")
    if "completed_frac" in metrics:
        print(f"# {workload} failed_frac = {1.0 - metrics['completed_frac']['value']:.6g} ratio"
              "  (trajectories ended by an AiryflowError / attempted)")


def smoke(seed: int, rng: random.Random, started: float) -> int:
    """Run every workload briefly, traced and untraced; check every metric is printed."""
    problems = []
    for workload in rng.sample(WORKLOADS, len(WORKLOADS)):
        repeats = measure(workload, 0.0, True, True, rng, started)
        problems += [f"{workload}: check {name} failed: {detail}"
                     for r in repeats for name, ok, detail in r["checks"] if not ok]
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            metrics, samples = summarize(repeats, trace)
            report(workload, repeats if trace else [], metrics, samples)
            problems += [f"{workload}: {name} not printed in {unit}" for name, unit in units.items()
                         if metrics.get(name, {}).get("unit") != unit]
    for problem in problems:
        print(f"# smoke FAIL {problem}")
    print(f"# smoke {'FAIL' if problems else 'ok'} (seed {seed})")
    return 1 if problems else 0


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders workloads and repeats; the workloads have no randomness")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads with a short horizon; check metric names and units")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "airyflow" / "__init__.py").is_file():
        print(f"error: no airyflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    try:
        if args.smoke:
            return smoke(args.seed, rng, started)
        repeats = measure(args.workload, args.seconds, bool(args.trace), False, rng, started)
        run_facts = facts(args.seed, args, repeats)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics, samples = summarize(repeats, bool(args.trace))
    report(args.workload, repeats, metrics, samples)
    print("# facts " + json.dumps(run_facts))
    failed = sum(not r["ok"] for r in repeats)
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(repeats),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
