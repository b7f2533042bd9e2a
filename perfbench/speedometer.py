"""Samples how fast this process's CPU runs, so times can be given at a fixed speed.

On a virtual machine shared with other tenants, a vCPU can run up to twice
as slowly for seconds to minutes at a time, and each vCPU does so on its own.
A loop timed just before and after a workload misses changes during it.  So
a SIGALRM every ``INTERVAL_S`` of wall time runs a fixed numpy loop in the
same process and times it.  The loop runs twice per sample and only the
second pass is timed, so the sample does not depend on what the workload left
in the caches.  The mean loop time over a phase of the workload is that
phase's slowdown against ``REFERENCE_TICK_S``.  Both passes' time is kept per
phase so it can be taken out of the phase's measured time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.025
REFERENCE_TICK_S = 5e-4  # the loop's time at reference speed
_LOOP_STEPS = 10
_N = 512


class Speedometer:
    """Context manager that samples CPU speed; ``phase`` names what is running."""

    def __init__(self):
        self.phase = "run"
        self.ticks: dict = {}  # phase -> [count, timed seconds, seconds of both passes]
        self._x = np.cos(3.0 * 2.0 * np.pi * np.arange(_N) / _N)
        self._ik = 1j * np.fft.fftfreq(_N, 1.0 / _N)
        self._fft, self._ifft = np.fft.fft, np.fft.ifft
        self._loop()

    def _loop(self) -> None:
        y = self._x
        for _ in range(_LOOP_STEPS):
            spectrum = self._fft(y) / _N
            y = np.tanh(y + 1e-3 * (self._ifft(self._ik * spectrum) * _N).real)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._loop()  # untimed: brings the loop's code and data back into cache
        timed = time.perf_counter()
        self._loop()
        end = time.perf_counter()
        entry = self.ticks.setdefault(self.phase, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - timed
        entry[2] += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy_s(self, phase: str | None = None) -> float:
        """Seconds spent in the sampling loop during ``phase``, or in all phases."""
        if phase is not None:
            return self.ticks.get(phase, (0, 0.0, 0.0))[2]
        return sum(busy for _, _, busy in self.ticks.values())

    def at_reference(self, phase: str, seconds: float) -> float:
        """``seconds`` measured in ``phase``, net of sampling, at reference speed.

        A phase too short to be sampled takes the mean over all phases.
        """
        count, _, busy = self.ticks.get(phase, (0, 0.0, 0.0))
        samples = self.ticks.values() if count == 0 else [self.ticks[phase]]
        total_count = sum(c for c, _, _ in samples)
        if total_count == 0:
            raise RuntimeError("the workload ended before the first speed sample")
        mean_tick = sum(timed for _, timed, _ in samples) / total_count
        return (seconds - busy) * REFERENCE_TICK_S / mean_tick

    def mean_tick_s(self, phase: str) -> float:
        """Mean timed loop pass during ``phase``, in seconds (0 if never sampled)."""
        count, timed, _ = self.ticks.get(phase, (0, 0.0, 0.0))
        return timed / count if count else 0.0
