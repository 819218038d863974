"""Machine speed, measured by fixed calibration kernels.

The shared 2-core container this benchmark was built on changes speed by 25
to 75% within seconds (a fixed compute loop and the deterministic DW n = 2
build both show it, with no steal time reported), far more than a useful
regression bound.  Every timing is therefore reported in reference seconds:
the measured time scaled by ``reference / kernel time``, where a kernel is
timed right before and right after the measured work and, for in-process
work, every PROBE_INTERVAL_S of CPU time during it.

Two kernels, because one does not track the other's kind of work:

``kernel``
    what the program does most in process: ``Fraction`` elimination and
    dict-of-tuple churn.  In a 240 s interleaved test the raw times of the
    DW n = 3 non-degeneracy check and the DW n = 2 build drifted 30% between
    20 s windows; scaled by this kernel they moved 2 to 4%.
``startup``
    a fresh interpreter importing ``fractions``, for CLI subprocesses, whose
    time is mostly interpreter start-up and import.  Over 100 s in which raw
    CLI times drifted 40% between 5 s windows, scaling by this kernel left
    7%; scaling by ``kernel`` left 15%.

Neither kernel uses the program, so a change to the program cannot move them.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

# kernel times on the reference machine (the container above in its fast state)
REFERENCE_S = 0.0028
STARTUP_REFERENCE_S = 0.05
# seconds between kernel timings while work runs
PROBE_INTERVAL_S = 0.05
_N = 9


def kernel():
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(_N)]
         for i in range(_N)]
    for c in range(_N):
        p = next((r for r in range(c, _N) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for r in range(_N):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return m, counts


def kernel_time(reps: int = 1) -> float:
    """Mean wall time of one kernel call over ``reps`` calls."""
    start = time.perf_counter()
    for _ in range(reps):
        kernel()
    return (time.perf_counter() - start) / reps


def startup_time() -> float:
    """Wall time of a fresh interpreter that imports ``fractions``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fractions"], check=True)
    return time.perf_counter() - start


class Meter:
    """Kernel times around (and, with ``probe``, during) timed work, to scale it."""

    def __init__(self, kernel, reference_s: float, probe: bool = False):
        self.kernel = kernel
        self.reference_s = reference_s
        self.probe = probe
        self.times = []
        self.spent = 0.0  # seconds spent timing the kernel
        self._at = float("-inf")

    def _time_kernel(self) -> None:
        start = time.perf_counter()
        self.times.append(self.kernel())
        self._at = time.perf_counter()
        self.spent += self._at - start

    def mark(self) -> int:
        """Index of the latest kernel time, timing the kernel first if that one
        is PROBE_INTERVAL_S old."""
        if time.perf_counter() - self._at >= PROBE_INTERVAL_S:
            self._time_kernel()
        return len(self.times) - 1

    @contextmanager
    def probing(self):
        """Time the kernel every PROBE_INTERVAL_S of this process's CPU time."""
        if not self.probe:
            yield
            return
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: self._time_kernel())
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def clock(self) -> float:
        """perf_counter less the time spent timing the kernel."""
        return time.perf_counter() - self.spent

    def scale(self, seconds: float, first: int) -> float:
        """``seconds`` of work that began after kernel time ``first``, in reference seconds."""
        return seconds * self.reference_s / statistics.fmean(self.times[first:self.mark() + 1])
