"""Host-speed calibration of the benchmark's pass and set-up times.

On a host whose cores are shared with other tenants, the same work runs up
to 1.8 times slower for seconds to minutes at a time.  A fixed kernel that
does not touch flagcurv therefore runs before and after each timed call and
every ``PERIOD_S`` of wall time during it, and ``pass_norm_s`` and
``setup_s`` rescale the measured times to the speed at which the kernel
takes ``REF_S``.

Two kernels, one per kind of work: ``exact`` (Fraction arithmetic, hashing
and dict stores: the exact engine and numpy's per-call overhead on small
arrays) and ``numeric`` (a dense SVD and a pass over arrays larger than the
cache: the large invariant-form SVD of ``witness-build``).  On interpreter
work the exact kernel tracks the host; on the long BLAS calls of
``witness-build`` only the numeric one does.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.010  # a fixed scale: about the exact kernel's quiet time on a 2-vCPU Xeon
PERIOD_S = 0.1
KIND = {"exact-verify": "exact", "flags-normal": "exact", "flags-finsler": "exact",
        "witness-build": "numeric"}
# Kernel runs before and after each call.  The numeric work is a few long C
# calls, during which the timer cannot sample, so it takes more.
BRACKET_REPS = {"exact": 1, "numeric": 5}


def exact_kernel() -> float:
    """Seconds taken by one fixed piece of interpreter work."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 1501):
        x = Fraction(i % 11 + 1, i % 13 + 1)
        acc = acc + x * x - x if i % 16 else x
        table[i & 127] = hash(acc) ^ (i * 2654435761 % 1000003)
    return time.perf_counter() - start


class NumericKernel:
    """Seconds taken by one SVD of a fixed 160 x 160 matrix and one pass
    over a 20 MB array (allocated once), in place."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((160, 160))
        self.b = rng.standard_normal(2_500_000)

    def __call__(self) -> float:
        start = time.perf_counter()
        self.np.linalg.svd(self.a)
        self.np.multiply(self.b, 1.0, out=self.b)
        return time.perf_counter() - start


@functools.cache
def _kernel(kind: str):
    return exact_kernel if kind == "exact" else NumericKernel()


def calibrator(workload: str | None) -> "Calibrator":
    """A calibrator with ``workload``'s kernel (built once per process), or
    one that only times calls when ``workload`` is None."""
    if workload is None:
        return Calibrator()
    kind = KIND[workload]
    return Calibrator(_kernel(kind), BRACKET_REPS[kind])


def normalized(op_s: float, cal_s: list) -> float:
    """``op_s`` rescaled to the reference host speed, from the kernel times
    sampled at even wall-time steps around and during it.  The work done in
    a stretch of wall time goes as 1 / kernel time, hence the harmonic mean
    (which also plays down a kernel run stalled by a context switch)."""
    return op_s * REF_S / statistics.harmonic_mean(cal_s)


class Calibrator:
    """Times calls and samples ``kernel`` around and during them; a ``None``
    kernel only times the calls.

    While a call runs, a SIGALRM timer runs the kernel every ``PERIOD_S``
    of wall time (between bytecodes of the main thread, so not inside a
    long C call), and the kernel's own time is taken out of the call's."""

    def __init__(self, kernel=None, reps: int = 1):
        self.kernel, self.reps = kernel, reps
        self._ticks, self._stolen, self._old = [], 0.0, None

    def bracket(self) -> list:
        """Kernel times measured now, between two calls."""
        if self.kernel is None:
            return []
        return [self.kernel() for _ in range(self.reps)]

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._ticks.append(self.kernel())
        self._stolen += time.perf_counter() - start

    def start(self) -> None:
        """Start sampling on the timer."""
        self._ticks, self._stolen = [], 0.0
        if self.kernel is not None:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop the timer.  Returns the kernel times sampled since start()
        and the seconds they took."""
        if self.kernel is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        return self._ticks, self._stolen

    def timed(self, thunk):
        """(result, seconds, kernel times sampled during the call); a raised
        exception stands for the result."""
        self.start()
        start = time.perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # a raised operation counts as failed
            result = exc
        finally:
            ticks, stolen = self.stop()
            elapsed = time.perf_counter() - start
        return result, elapsed - stolen, ticks


class SetupClock:
    """Set-up time of a worker: from ``t0``, the wall-clock time at which
    the parent spawned it, to ``done()``.  When ``on``, the exact kernel
    (set-up is import and Python-level construction) is sampled when the
    worker starts, on the timer during set-up and at the end, and its own
    time is taken out of the set-up time."""

    def __init__(self, t0: float, on: bool):
        self.t0, self.cal = t0, Calibrator(exact_kernel if on else None)
        start = time.perf_counter()
        self.before = self.cal.bracket()
        self.lost = time.perf_counter() - start
        self.cal.start()

    def done(self):
        """(set-up seconds, the same at the reference host speed or None)."""
        during, stolen = self.cal.stop()
        wall = time.time() - self.t0 - self.lost - stolen
        if self.cal.kernel is None:
            return wall, None
        return wall, normalized(wall, self.before + during + self.cal.bracket())
