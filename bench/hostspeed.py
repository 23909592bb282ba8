"""A fixed reference computation that measures how fast the host runs right now.

The benchmark shares its cores with other tenants, whose load slows every
process on the host for seconds to minutes at a time, by up to 2x.  The
kernel below does the same kind of work as steerkit (small complex LAPACK
calls driven from a Python loop) and never calls steerkit, so no change to
the program can move it.  Timing it next to the workload gives the host's
slow-down at that moment; dividing it out reports each time as if the host
ran the kernel in ``REFERENCE_SECONDS``.

Set-up time is normalised the same way with a second reference, a fresh
interpreter that makes steerkit's third-party imports (``IMPORT_CODE``).
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np

#: the kernel's time on an idle 2-CPU Xeon VM (min over 1000 samples)
REFERENCE_SECONDS = 4.0e-3

#: a fresh interpreter's reference set-up: the numpy and scipy imports and
#: the first LAPACK call that steerkit's own set-up also makes, without
#: steerkit.  It prints its wall time.
IMPORT_CODE = (
    "import time\n"
    "before = time.perf_counter()\n"
    "import numpy, scipy.linalg\n"
    "numpy.linalg.eigvals(numpy.eye(6) + 1j)\n"
    "print(repr(time.perf_counter() - before))\n"
)
#: IMPORT_CODE's time on the same VM, like REFERENCE_SECONDS its minimum
#: (over 40 children; their median was 0.33 s at a kernel slow-down of 1.35)
IMPORT_SECONDS = 0.26

_RNG = np.random.default_rng(20141128)
_SMALL = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_LARGE = _RNG.standard_normal((36, 36)) + 1j * _RNG.standard_normal((36, 36))
_RHS = _RNG.standard_normal(36) + 0j


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(80):
        acc += float(np.linalg.eigvals(_SMALL).real.max())
        acc += float(abs(np.linalg.solve(_LARGE, _RHS)[0]))
        acc += sum(i * i for i in range(50))
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return time.perf_counter() - start


class Sampler:
    """Runs the kernel every ``interval`` seconds of wall time, from SIGALRM.

    The samples land inside long items too, so a 15-second figure is
    divided by the host's slow-down while it ran, not by a guess from its
    two ends.  With ``interval=None`` it samples only when :meth:`sample`
    is called.  ``spent`` is the wall time taken by sampling, for the
    caller to subtract from its own timings.
    """

    def __init__(self, interval: float | None):
        self.interval = interval
        self.times: list[float] = []
        self.kernels: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel = kernel_seconds()
        self.times.append(start + 0.5 * kernel)
        self.kernels.append(kernel)
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self.sample()
        if self.interval is not None:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Mean slow-down of the samples within [start, end], else the nearest one."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            inside = self.kernels[lo:hi]
            return sum(inside) / len(inside) / REFERENCE_SECONDS
        middle = 0.5 * (start + end)
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                   key=lambda i: abs(self.times[i] - middle))
        return self.kernels[near] / REFERENCE_SECONDS
