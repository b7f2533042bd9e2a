"""Wrappers installed around airyflow's public functions for one repeat.

The benchmark measures each layer from outside the package: it replaces a
module's public function with a wrapper that times the call.  Nothing in the
package changes; the wrappers take effect because the package looks these
functions up through their modules at call time (``schemes.integrate``,
``geometry.resample_equal_arclength``, the module-global ``step`` inside
``integrate``, and so on).

Untraced repeats install only what the end-to-end metrics need: the time
spent in ``harness.build_initial_state`` (marked as the "setup" phase of a
``Speedometer``) and a record of every trajectory ``schemes.integrate``
runs.  Traced repeats add a span per call at each layer boundary, kept in
memory, plus tracemalloc around resampling and a count of numpy FFT calls
made by the stepper.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

from airyflow import diagnostics, geometry, harness, schemes, spectral
from airyflow.errors import AiryflowError, BlowUp

_clock = time.perf_counter

#: harness entry points the workloads call; each repeat makes one such call
ENTRY_POINTS = ("run_experiment", "run_filter_study", "run_convergence_study")

#: (module, public function) pairs timed as plain spans in traced repeats
_SPANNED = (
    *((harness, name) for name in ENTRY_POINTS),
    (schemes, "init_step"),
    (schemes, "step"),
    (schemes, "nonlinear_term"),
    (diagnostics, "conserved_quantities"),
    (geometry, "reconstruct_curve"),
    (spectral, "power_spectrum"),
)

_LAYERS = ("harness", "geometry", "schemes", "diagnostics", "spectral")


def _span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class Probes:
    """Measurements of one workload repeat; ``install`` patches the package."""

    def __init__(self, trace: bool, meter=None):
        self.trace = trace
        self.meter = meter  # a Speedometer whose phase is "setup" inside setup
        self.setup_s = 0.0
        self.trajectories: list[dict] = []  # one record per integrate call
        self.spans: list = []  # (name, parent index or -1, start, end)
        self.fft_calls = 0
        self.resample_peak_bytes = 0
        self._stack: list[int] = []
        self._count_fft = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        build = harness.build_initial_state

        def build_initial_state(cfg):
            if self.meter is not None:
                self.meter.phase = "setup"
            start = _clock()
            try:
                return build(cfg)
            finally:
                self.setup_s += _clock() - start
                if self.meter is not None:
                    self.meter.phase = "run"

        harness.build_initial_state = self._span("harness.build_initial_state",
                                                 build_initial_state)
        schemes.integrate = self._span("schemes.integrate",
                                       self._integrate_probe(schemes.integrate))
        if not self.trace:
            return
        for module, attr in _SPANNED:
            setattr(module, attr, self._span(_span_name(module, attr), getattr(module, attr)))
        geometry.resample_equal_arclength = self._resample_probe(
            geometry.resample_equal_arclength)
        np.fft.fft = self._fft_counter(np.fft.fft)
        np.fft.ifft = self._fft_counter(np.fft.ifft)

    def _span(self, name: str, fn):
        """``fn`` itself when untraced; otherwise ``fn`` recording a span per call."""
        if not self.trace:
            return fn
        spans, stack = self.spans, self._stack

        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[index] = (name, parent, start, end)

        return spanned

    def _integrate_probe(self, integrate):
        def integrate_probe(initial, cfg, t_final, observers=(), nonlinear=None):
            record = dict(requested=round((t_final - initial.time) / cfg.dt), completed=0,
                          error=None, initial=initial, final=None, last_step=0)
            self.trajectories.append(record)
            watched = [(stride, self._observer_probe(record, callback))
                       for stride, callback in observers]
            self._count_fft = self.trace
            try:
                record["final"] = integrate(initial, cfg, t_final, watched, nonlinear)
            except BlowUp as exc:
                record["error"], record["completed"] = "BlowUp", exc.step - 1
                raise
            except AiryflowError as exc:
                # raised by an observer after step last_step had completed
                record["error"], record["completed"] = type(exc).__name__, record["last_step"]
                raise
            finally:
                self._count_fft = False
            record["completed"] = record["requested"]
            return record["final"]

        return integrate_probe

    def _observer_probe(self, record: dict, callback):
        def observe(step, state):
            record["last_step"] = step
            counting, self._count_fft = self._count_fft, False
            try:
                return callback(step, state)
            finally:
                self._count_fft = counting

        return self._span("harness.observer", observe)

    def _resample_probe(self, resample):
        spanned = self._span(_span_name(geometry, "resample_equal_arclength"), resample)

        def resample_probe(*args, **kwargs):
            tracemalloc.start()
            try:
                return spanned(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.resample_peak_bytes = max(self.resample_peak_bytes, peak)

        return resample_probe

    def _fft_counter(self, transform):
        def counted(*args, **kwargs):
            if self._count_fft:
                self.fft_calls += 1
            return transform(*args, **kwargs)

        return counted

    # -- results ------------------------------------------------------------

    def steps_completed(self) -> int:
        return sum(record["completed"] for record in self.trajectories)

    def layer_metrics(self) -> dict:
        """Per-layer totals, per-call times, counts and self times from the spans."""
        total: dict = defaultdict(float)
        calls: Counter = Counter()
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                covered[parent] += end - start
        self_s = dict.fromkeys(_LAYERS, 0.0)
        for (name, _, start, end), children in zip(self.spans, covered):
            self_s[name.split(".", 1)[0]] += end - start - children

        def per_call_us(name):
            return total[name] / calls[name] * 1e6 if calls[name] else 0.0

        steps = calls["schemes.init_step"] + calls["schemes.step"]
        entry_s = sum(total[f"harness.{name}"] for name in ENTRY_POINTS)
        metrics = {
            "geometry.resample_s": total["geometry.resample_equal_arclength"],
            "geometry.resample_calls": calls["geometry.resample_equal_arclength"],
            "geometry.resample_peak_mb": self.resample_peak_bytes / 2**20,
            "schemes.integrate_s": total["schemes.integrate"],
            "schemes.steps": steps,
            "schemes.step_us": (total["schemes.integrate"] - total["harness.observer"])
            / max(steps, 1) * 1e6,
            "schemes.nonlinear_term_us": per_call_us("schemes.nonlinear_term"),
            "schemes.nonlinear_term_calls": calls["schemes.nonlinear_term"],
            "schemes.fft_per_step": self.fft_calls / max(steps, 1),
            "schemes.blowups": sum(r["error"] == "BlowUp" for r in self.trajectories),
            "harness.observer_us": per_call_us("harness.observer"),
            "harness.observer_calls": calls["harness.observer"],
            "harness.output_s": entry_s - total["harness.build_initial_state"]
            - total["schemes.integrate"],
        }
        for name in ("diagnostics.conserved_quantities", "geometry.reconstruct_curve",
                     "spectral.power_spectrum"):
            metrics[f"{name}_us"] = per_call_us(name)
            metrics[f"{name}_calls"] = calls[name]
        metrics.update({f"{layer}.self_s": self_s[layer] for layer in _LAYERS})
        return metrics
