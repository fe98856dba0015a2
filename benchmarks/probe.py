"""Machine-speed probe: rescales measured times to a reference speed.

On a shared machine the CPU speed swings by up to about 1.8x from one
tenth of a second to the next, and the share of slow time drifts over
minutes, which is longer than a run, so medians over a run cannot remove
it.  The probe times a fixed pure-Python kernel, which touches no
gevreykit code, from a SIGALRM handler every PERIOD_S seconds while a job
runs, and a few times before and after it.  A time measured while the
kernel took k seconds on average is reported as ``time * REF_KERNEL_S / k``,
so that it reads as seconds at the reference speed.  The handler's own
time is excluded from every interval read through ``clock``.
"""

from __future__ import annotations

import math
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.1
# the kernel's mean time on a shared 2-vCPU Intel Xeon VM at typical
# load, so that rescaled times read as seconds of that machine
REF_KERNEL_S = 4.5e-3


def kernel() -> float:
    """Interpreter-bound work of the program's kind: Fraction arithmetic
    (the exact jets) and float powers and logarithms (the sequence audit).
    Of the mixes tried, these two tracked the workloads' own speed best."""
    a = Fraction(1, 3)
    for i in range(1, 400):
        a = a * Fraction(i, i + 1) + Fraction(1, i)
    x = 0.0
    for i in range(2, 3000):
        x += float(i) ** 1.5 * math.log(i) - x / i
    return x + a.denominator % 7


class SpeedProbe:
    def __init__(self, periodic: bool = True) -> None:
        self.periodic = periodic
        self.spent = 0.0
        self.samples: list[float] = []

    def clock(self) -> float:
        """perf_counter minus the time the probe itself has taken."""
        return perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        for _ in range(3):
            self.sample()
        if self.periodic:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(3):
            self.sample()

    def factor(self) -> float:
        """REF_KERNEL_S over the mean kernel time of the last window; the
        mean, not the median, because the speed is two-state and the
        median jumps between the states."""
        return REF_KERNEL_S / statistics.fmean(self.samples)
