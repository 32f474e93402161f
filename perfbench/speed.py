"""Host speed, from a fixed reference kernel timed next to and during every
request.

The benchmark host is shared: for minutes at a time neighbours slow every
request by up to 1.6x (measured on a 2-vCPU VM, CPU time equal to wall time),
which swamps any change worth gating.  The kernel below mixes the program's
ingredients, so its time tracks that slowdown.  It runs before every request,
after the last one, and every ``TICK_S`` seconds inside requests, from a
SIGALRM handler, so a multi-second request has samples of its own.  A
request's time at reference speed is its wall time minus the kernel runs
inside it, times ``REF_NOMINAL_S`` over the mean kernel time around and inside
it.  The kernel is fixed and shares no code with planarep, so a change to the
program moves scaled and raw times in the same proportion.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from statistics import fmean
from time import perf_counter

import numpy as np
from scipy.linalg import expm

# reference speed: a host on which the kernel takes this long
REF_NOMINAL_S = 0.0025
TICK_S = 0.5  # period of the samples inside requests: 0.5% of the time
_A = np.arange(36.0).reshape(6, 6) / 100
_M = np.eye(3) * 0.9 + 0.01


def reference_kernel() -> None:
    """Tuples and Fractions (the exact layer), 3x3 products and 6x6 expm
    (the numeric layers)."""
    terms, w = {}, ()
    for i in range(400):
        w = w + (i % 7 - 3,)
        terms[w[-6:]] = terms.get(w[-6:], Fraction(0)) + Fraction(1, 1 + i % 5)
    x = np.eye(3)
    for _ in range(300):
        x = x @ _M
    for _ in range(10):
        expm(_A)


class Speed:
    """Kernel samples, each ``(start, duration)``, taken at request
    boundaries by ``sample`` and inside requests while ``ticking``."""

    def __init__(self):
        reference_kernel()  # first call pays for imports and caches
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a tick that fires during a sample
            return
        self._busy = True
        t0 = perf_counter()
        reference_kernel()
        self.samples.append((t0, perf_counter() - t0))
        self._busy = False

    @contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, intervals) -> list[tuple[float, float]]:
        """For each ``(start, wall)`` interval measured since the last
        ``reset``: the wall time without the kernel runs inside it, and that
        time at reference speed, from the mean of the kernel times inside it
        and of the last sample before and the first after it."""
        starts = [t for t, _ in self.samples]
        out = []
        for start, wall in intervals:
            lo = bisect_left(starts, start)
            hi = bisect_left(starts, start + wall)
            inside = [d for _, d in self.samples[lo:hi]]
            around = [d for _, d in self.samples[max(lo - 1, 0):hi + 1]]
            own = wall - sum(inside)
            out.append((own, own * REF_NOMINAL_S / fmean(around)))
        return out

    def reset(self) -> None:
        self.samples.clear()
