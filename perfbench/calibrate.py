"""Host-speed calibration of the benchmark's times.

On the shared 2-core x86_64 VM this benchmark was written on, the same code
runs in host speed states up to ~1.8x apart (a pure-Python loop and the
library's quadrature slow by about the same factor), switching every few
seconds or staying for many minutes, so even the fastest execution in a
24-second run moves with the state.  The run therefore times a small fixed
reference kernel every EVERY_S of wall time, from an interval-timer signal
handler, so samples land inside long operations as well as between them (a
sample runs the kernel twice and times the second, warm run), and reports
every end-to-end time in *calibrated* units:

    calibrated = (raw - kernel time inside it) * mean(REF_NOMINAL_S / R_i)

the mean running over the samples R_i taken during the execution or within
WINDOW_S of it, and REF_NOMINAL_S being the kernel's time on that VM in its
fast state, so calibrated figures read as seconds on that host at full
speed.  The kernel uses neither betascale nor the benchmark's own code: a
change to the library moves the calibrated time and not R.  The raw times
are printed and written to result.json next to them.

The kernel mixes the work the library does: interpreted Python arithmetic,
scipy's QUADPACK calling back into a Python integrand, scalar scipy.special
calls and a small numpy array operation.  The fresh-interpreter import that
setup_s times has its own reference, REF_IMPORT (below).
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy import special as sc
from scipy.integrate import quad

clock = time.perf_counter

REF_NOMINAL_S = 0.36e-3  # the kernel's time on the reference VM in its fast state
EVERY_S = 0.05           # one sample per EVERY_S of wall time while sampling
WINDOW_S = 0.1           # samples this close to an execution calibrate it too

# A fresh interpreter's import of betascale.cli does not follow the kernel:
# on that VM it read 0.7-1.0 s whether the kernel ran at 0.39 or 0.70 ms, and
# 0.53 s at other times.  It is calibrated instead against a fresh
# interpreter importing the library's dependencies alone, timed next to it.
REF_IMPORT = "numpy, scipy.special, scipy.integrate"
REF_IMPORT_NOMINAL_S = 0.80  # REF_IMPORT's median time on that VM

_XS = np.linspace(0.01, 5.0, 600)


def kernel():
    s = 0.0
    for i in range(1, 1200):
        s += (i * 7 % 13) / i
    s += quad(lambda t: math.exp(-t) * math.sqrt(t) * sc.gammainc(1.5, t), 0.0, 30.0)[0]
    for k in range(1, 40):
        s += sc.betainc(1.5, 0.5, k / 41.0)
    s += float(np.sum(sc.gammaincc(2.5, _XS) * np.exp(-_XS)))
    return s


class Calibrator:
    """Reference samples, and the calibrated value of a raw time."""

    def __init__(self):
        for _ in range(3):  # warm the kernel's imports and caches
            kernel()
        self.samples = []  # (end time, timed kernel seconds, seconds taken in all)
        self._busy = False

    def take(self):
        if self._busy:  # a timer tick while a sample runs
            return
        self._busy = True
        try:
            t0 = clock()
            kernel()  # untimed: brings the kernel back into the caches
            tm = clock()
            kernel()
            t1 = clock()
            self.samples.append((t1, t1 - tm, t1 - t0))
        finally:
            self._busy = False

    @contextmanager
    def sampling(self):
        """Take a sample every EVERY_S of wall time until the block ends.
        Only for work done in this process: a sample taken while a child
        runs on the same CPU would slow the child."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)

    def calibrated(self, t0, dt):
        """A raw time ``dt`` that started at ``t0``, in calibrated seconds.
        A sample ending inside [t0, t0 + dt] ran entirely inside it (the
        timer interrupts the measured call, never the clock reads around
        it), so its kernel time is taken out first."""
        t1 = t0 + dt
        inside = sum(spent for t, _, spent in self.samples if t0 < t <= t1)
        near = [r for t, r, _ in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:  # no sample close by: the nearest one in time
            near = [min(self.samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]]
        return (dt - inside) * statistics.fmean(REF_NOMINAL_S / r for r in near)
