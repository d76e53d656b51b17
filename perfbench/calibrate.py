"""Host-speed calibration, so timings compare across a drifting host.

On a shared host the same work can take half again as long from one
minute to the next, which would swamp the run-to-run comparisons the
benchmark exists for.  So the benchmark times a fixed reference task that
never touches tiebreak, every CALIBRATE_EVERY_S between operations, and
reports each time scaled by REFERENCE_S over the median of the reference
timings nearest to it.  The task mixes the three kinds of work tiebreak
does: interpreter bytecode, NumPy calls on scalars, and a NumPy pass over
a few megabytes.  A change to tiebreak cannot move the reference task, so
it cannot hide in the scaling; raw wall times are reported beside the
scaled ones.

The task reads slower right after the process has sat waiting (as run.py
does while a set-up sample runs) than in a busy process, so scaled figures
carry a per-measurement bias: compare each with itself across runs, not
with other metrics.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.010
"""Nominal duration of the reference task; scaled times are seconds on a
host where the task takes this long."""

CALIBRATE_EVERY_S = 0.25
NEAREST = 3

_ARRAY = np.linspace(0.1, 2.0, 500_000)


def reference_task() -> float:
    """Seconds taken by one fixed unit of interpreter and NumPy work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40_000):
        acc += i * 0.5
    x = np.float64(0.3)
    for _ in range(600):
        acc += float(np.exp(np.asarray(x)))
    acc += float(np.exp(-_ARRAY).sum())
    return time.perf_counter() - t0


class Calibration:
    """Reference-task timings, each with the moment it was taken."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        t = time.perf_counter()
        self.samples.append((t, reference_task()))

    def maybe_sample(self) -> None:
        """Sample when CALIBRATE_EVERY_S have passed since the last sample."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= CALIBRATE_EVERY_S:
            self.sample()

    def factor_at(self, t: float) -> float:
        """Scale for a time measured around moment `t`: REFERENCE_S over the
        median of the NEAREST reference timings."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - t))[:NEAREST]
        return REFERENCE_S / statistics.median(d for _, d in near)
