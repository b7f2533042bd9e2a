"""Check that a change moves no output: run one fixed list of configs on a
git revision and on the working tree, and diff what they write.

    python3 tools/parity.py REF

REF is any git revision (``HEAD``, a commit, a branch).  Its tree is
extracted by ``git archive`` into a temporary directory.  Each config then
runs in a fresh Python process whose ``PYTHONPATH`` is that side's ``src``,
first for REF and then for the working tree, writing its outputs to a
directory of its own.  The manifests' ``wall_time_s`` and ``setup_time_s``
lines are dropped, ``diff -r`` compares the two trees of outputs, and the
first differing line of each differing file is printed.  The headline
figures follow: the blow-up steps of the three ADB variants to t = 1 and
the benchmark's three ``max_xi``, in full precision.

Exit status 0 when the outputs are identical, 1 when they differ (the
outputs are then kept and their directory printed), 2 on a usage error,
a REF that cannot be archived or a side that fails to run.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: manifest lines that time a run: the only output that may differ
TIME_KEYS = ("wall_time_s", "setup_time_s")


def _criterion_4(harness, t_final):
    # criterion 4's filter study, the benchmark's filter-study workload at t = 0.5
    return harness.RunConfig(shape="ellipse", shape_params=dict(a=1.0, b=0.5), n=512,
                             dt=1e-4, t_final=t_final, scheme="adb", diagnostic_stride=100)


def _time_study(harness, scheme):
    # criterion 1's temporal order: ellipse E, N = 512, dt = 2e-3, 1e-3, 5e-4 to t0 = 0.92
    base = harness.RunConfig(shape="ellipse", shape_params=dict(a=1.0, b=0.5), n=512,
                             dt=2e-3, t_final=0.92, scheme=scheme)
    return harness.ConvergenceStudyConfig(base=base, axis="time", comparison_time=0.92)


def _space_study(harness):
    # the benchmark's converge-space workload: cardioid, N = 512, 1024, 2048 to t0 = 0.01
    base = harness.RunConfig(shape="cardioid", n=512, dt=1e-5, t_final=0.01, scheme="cnadb")
    return harness.ConvergenceStudyConfig(base=base, axis="space", comparison_time=0.01)


#: name -> (kind, config builder taking the harness module); "run" configs go
#: through run_experiment, "filters" through run_filter_study, "converge"
#: through run_convergence_study
CONFIGS = {
    "preset-e": ("run", lambda h: h.preset_config("E", snapshot_stride=500)),
    "preset-e-adb": ("run", lambda h: h.preset_config(
        "E", scheme="adb", dt=2e-3, t_final=0.1, diagnostic_stride=1)),
    "cardioid": ("run", lambda h: h.preset_config(
        "CARDIOID", closure_tol=3e-6, t_final=0.002, diagnostic_stride=3, snapshot_stride=10)),
    "pc3": ("run", lambda h: h.preset_config("PC3", t_final=0.05)),
    "filters-t0.5": ("filters", lambda h: _criterion_4(h, 0.5)),
    "filters-t1": ("filters", lambda h: _criterion_4(h, 1.0)),
    "converge-space": ("converge", _space_study),
    "converge-time-cn": ("converge", lambda h: _time_study(h, "cn")),
    "converge-time-cnadb": ("converge", lambda h: _time_study(h, "cnadb")),
}


def run_config(name: str, out: Path) -> dict:
    """Run config ``name`` with the airyflow on the path, writing to ``out``;
    return its headline figures.  Safe to call more than once in one process."""
    from airyflow import diagnostics, harness, schemes
    from airyflow.errors import StudyFailed

    kind, build = CONFIGS[name]
    cfg = build(harness)
    if kind == "run":
        result = harness.run_experiment(replace(cfg, output_dir=out))
        return {"status": result.status,
                "max_xi": max((abs(row.xi) for row in result.rows), default=None)}
    if kind == "filters":
        result = harness.run_filter_study(replace(cfg, output_dir=out))
        completed = [label for label in result.labels if label not in result.errors]
        return {"blowup_steps": {label: int(re.search(r"blow-up at step (\d+)", error)[1])
                                 for label, error in result.errors.items()},
                "max_xi": max(abs(xi) for label in completed
                              for _, xi in result.xi_series[label])}
    # a study keeps no series: the benchmark takes each level's M3 drift at t0
    ends, integrate = [], schemes.integrate

    def recorded(initial, *args, **kwargs):
        final = integrate(initial, *args, **kwargs)
        ends.append((initial, final))
        return final

    schemes.integrate = recorded
    try:
        row = harness.run_convergence_study(replace(cfg, base=replace(cfg.base, output_dir=out)))
    except StudyFailed as exc:
        return {"errors": exc.errors}
    finally:
        schemes.integrate = integrate
    m3 = lambda state: diagnostics.conserved_quantities(state).m3
    drift = [abs((m3(final) - m3(initial)) / m3(initial)) for initial, final in ends]
    return {"order": row.order, "max_xi": max(drift)}


def run_side(src: Path, out: Path) -> dict:
    """Each config in a fresh process importing airyflow from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    figures = {}
    for name in CONFIGS:
        proc = subprocess.run([sys.executable, __file__, "--config", name, str(out / name),
                               str(src)], env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} failed with {src}:\n{proc.stderr}")
        figures[name] = json.loads(proc.stdout.splitlines()[-1])
    return figures


def drop_times(tree: Path) -> None:
    for manifest in tree.rglob("manifest.txt"):
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines
                                    if line.split(" = ")[0] not in TIME_KEYS))


def first_differences(diff: str) -> list[str]:
    """Each differing file of ``diff -r`` output with its first differing lines."""
    lines, shown = [], set()
    for line in diff.splitlines():
        if line.startswith(("diff ", "Only in ")):
            lines.append(line)
            shown = set()
        elif line[:2] in ("< ", "> ") and line[0] not in shown:
            lines.append("  " + line)
            shown.add(line[0])
    return lines


def headline(figures: dict) -> list[str]:
    steps = figures["filters-t1"]["blowup_steps"]
    return [", ".join(f"{label} {step}" for label, step in steps.items()),
            ", ".join(f"{name} {figures[name].get('max_xi')!r}"
                      for name in ("preset-e", "filters-t0.5", "converge-space"))]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--config"]:
        name, out, src = argv[1], Path(argv[2]), Path(argv[3])
        import airyflow

        if not Path(airyflow.__file__).resolve().is_relative_to(src.resolve()):
            sys.exit(f"airyflow was imported from {airyflow.__file__}, not from {src}")
        out.mkdir(parents=True)
        print(json.dumps(run_config(name, out)))
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage:" + __doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    ref = argv[0]
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode(), end="", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix="airyflow-parity-"))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(work / "ref", filter="data")
    sides = {}
    for side, src in (("ref", work / "ref" / "src"), ("tree", ROOT / "src")):
        print(f"running {len(CONFIGS)} configs on {ref if side == 'ref' else 'the working tree'}")
        try:
            sides[side] = run_side(src, work / side / "out")
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            shutil.rmtree(work)
            return 2
        drop_times(work / side / "out")
    diff = subprocess.run(["diff", "-r", str(work / "ref" / "out"), str(work / "tree" / "out")],
                          capture_output=True, text=True)
    for side, label in (("ref", ref), ("tree", "working tree")):
        steps, max_xi = headline(sides[side])
        print(f"{label}: blow-up steps {steps}")
        print(f"{label}: max_xi {max_xi}")
    if diff.returncode == 0:
        print(f"outputs identical: {len(CONFIGS)} configs, manifest times removed")
        shutil.rmtree(work)
        return 0
    print("\n".join(first_differences(diff.stdout + diff.stderr)))
    print(f"outputs differ; both sides are kept in {work}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
