"""The box-speed reference: a frozen kernel timed between ops.

The sizing box is a shared 2-vCPU microVM whose speed moves by a third for
minutes at a time (neighbours on the same memory system; wall and CPU time move
together, steal time reads zero). No statistic taken inside a 20 s run removes
a slowdown that lasts longer than the run. What does: time a fixed piece of
work that has nothing to do with the program under test, all through every
pass, and report the program's CPU-busy time relative to it.

The kernel does the three kinds of work the engine does, in equal parts: it
churns small Python objects, streams numpy arrays and reads 64-byte headers
out of fixture files. It imports nothing from ``repro``. Kernels of these
kinds, recorded for fifteen minutes between the three local workloads' ops,
followed the workloads' 25 s medians with correlation 0.94-0.96; over ten
runs per workload on ten seeds, scaling by this one took the spread of
``answer_ms_p50`` from 9.9 / 10.2 / 13.5 / 9.8 % to 2.3 / 3.3 / 7.5 / 3.6 %
(``first_answer``, ``explore_narrow``, ``scan_wide``, ``serve_remote``).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

# What one kernel takes between ops on the sizing box when it is quiet. It only
# fixes the unit (scaled times read as seconds on a quiet sizing box); changing
# it rescales every timing metric of every workload alike.
NOMINAL_SECONDS = 0.011
SAMPLE_EVERY_SECONDS = 0.15  # between samples inside a pass: <= 7 % of a pass
HEADER_FILES = 168
HEADER_BYTES = 64
RECORD_STRIDE = 1000


class ReferenceKernel:
    """Callable: runs the kernel once and returns the seconds it took."""

    def __init__(self, objects: Path) -> None:
        self._files = sorted(objects.rglob("*.xseed"))[:HEADER_FILES]
        self._array = np.random.default_rng(0).integers(0, 1 << 30, 135_000)

    def __call__(self) -> float:
        started = time.perf_counter()
        rows = [(i, str(i), float(i)) for i in range(9500)]
        by_name = {row[1]: row for row in rows}
        rows.sort(key=lambda row: row[2], reverse=True)
        del by_name
        for _ in range(2):
            np.cumsum(self._array)
            (self._array * 3).astype(np.float64).sum()
            np.sort(self._array[:45_000])
        for path in self._files:
            with open(path, "rb") as handle:
                while handle.read(HEADER_BYTES):
                    handle.seek(RECORD_STRIDE, 1)
        return time.perf_counter() - started


class SpeedGauge:
    """Kernel samples taken over one interval (a pass, or a set-up), and the
    process CPU time spent in between."""

    def __init__(self, kernel: ReferenceKernel) -> None:
        self._kernel = kernel
        self.samples: list[float] = []
        self._last = 0.0
        self._began = 0.0
        self._cpu_began = 0.0
        self._before = 0  # samples taken before the interval began
        self.wall = 0.0  # of the interval, kernel time taken out
        self.cpu = 0.0

    def _sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.samples.append(self._kernel())
        self._last = time.perf_counter()

    def begin(self, samples: int) -> None:
        self._sample(samples)
        self._before = len(self.samples)
        self._cpu_began = time.process_time()
        self._began = time.perf_counter()

    def tick(self) -> None:
        """Between two ops: sample if the last sample is old enough."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_SECONDS:
            self._sample()

    def end(self, samples: int) -> None:
        wall = time.perf_counter() - self._began
        cpu = time.process_time() - self._cpu_began
        # The kernel is CPU-bound: its wall time is its CPU time.
        inside = sum(self.samples[self._before:])
        self.wall, self.cpu = wall - inside, cpu - inside
        self._sample(samples)

    @property
    def kernel_seconds(self) -> float:
        return statistics.median(self.samples)

    @property
    def scale(self) -> float:
        """What a wall time measured in this interval is multiplied by.

        The CPU-busy share of the interval is divided by how much slower than
        nominal the kernel ran; the waiting share (``serve_remote``'s
        simulated link sleeps) is left as it is - a slow box does not stretch
        a sleep.
        """
        busy = min(1.0, max(0.0, self.cpu / self.wall)) if self.wall > 0 else 1.0
        slowdown = self.kernel_seconds / NOMINAL_SECONDS
        return (1.0 - busy) + busy / slowdown
