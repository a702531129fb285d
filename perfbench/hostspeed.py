"""How fast the shared host runs right now, for host-speed-normalised times.

On a few vCPUs of a shared host the same fixed code switches between two
speeds, the slow one about 1.6x slower, in stretches from a fraction of a
second to minutes (no steal time is reported, so the slowdown is in the
core, not in scheduling).  No median over a run removes that.  So the
benchmark times a short fixed calibration kernel that uses no seqinvest
code between two tasks whenever 20 ms have passed since it last did, and
divides each task's time by the kernel's slowdown at the marks just
before and just after it.  Marks half a second apart missed the faster
switches; a mark before every task left the caches cold for every task.

The kernel has the two kinds of work the workloads do: compiling a fixed
Python source (a large interpreter code path with many small objects,
like the library's scalar Python code and its imports) and a numpy
uniform draw-and-compare (like the Monte Carlo steps).  A tight
arithmetic loop was tried first: it slows down less than the workloads
do.  ``speed()`` is the mean of the two halves' times relative to their
nominal times, so 1.0 is a host running at nominal speed, and a
normalised time is the time the task would take there.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

# Each half's time on the fast setting of a 2-vCPU Xeon host at 2.0 GHz, in seconds.
NOMINAL_COMPILE_S = 0.8e-3
NOMINAL_NP_S = 0.28e-3
REPEATS = 3
DRAWS = 1 << 15
# Compiled, never run: this module's own text, so editing it changes the
# kernel and NOMINAL_COMPILE_S with it.
SOURCE = Path(__file__)


class HostSpeed:
    def __init__(self) -> None:
        self._source = SOURCE.read_text()
        self._rng = np.random.Generator(np.random.Philox(2023))
        self._buf = np.empty(DRAWS)

    def _compile(self) -> None:
        compile(self._source, SOURCE.name, "exec")

    def _draw(self) -> int:
        self._rng.random(out=self._buf)
        return int(np.count_nonzero(self._buf < 0.3))

    def speed(self) -> float:
        """Slowdown against nominal: 1.0 nominal, 1.6 a host 1.6x slower."""
        halves = []
        for kernel, nominal in ((self._compile, NOMINAL_COMPILE_S), (self._draw, NOMINAL_NP_S)):
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
            halves.append(statistics.median(times) / nominal)
        return sum(halves) / len(halves)


class Marks:
    """Speed marks between tasks; each task is scaled by the marks around it."""

    def __init__(self, host: HostSpeed, every_s: float) -> None:
        self.host = host
        self.every_s = every_s
        self.points: list[tuple[int, float, float, float]] = []  # samples, start, end, speed

    def mark(self, n_samples: int) -> None:
        start = time.perf_counter()
        speed = self.host.speed()
        self.points.append((n_samples, start, time.perf_counter(), speed))

    def maybe_mark(self, n_samples: int) -> None:
        """Mark once ``every_s`` has passed since the last mark."""
        if not self.points or time.perf_counter() - self.points[-1][2] >= self.every_s:
            self.mark(n_samples)

    def normalise(self, samples: list[tuple[str, float]]) -> tuple[list[tuple[str, float]], float, float]:
        """Normalised samples, normalised and raw wall time between the marks."""
        out, wall, raw = [], 0.0, 0.0
        for (n0, _, end0, k0), (n1, start1, _, k1) in zip(self.points, self.points[1:]):
            factor = 2.0 / (k0 + k1)
            out += [(name, elapsed * factor) for name, elapsed in samples[n0:n1]]
            wall += (start1 - end0) * factor
            raw += start1 - end0
        return out, wall, raw

    def speeds(self) -> list[float]:
        return [k for *_, k in self.points]
