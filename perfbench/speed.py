"""Host speed, sampled while a workload runs, and times scaled by it.

The benchmark runs on a few virtual CPUs of a shared host, whose speed for
the same instructions drifts by tens of percent over seconds to minutes
(cache and core sharing with other tenants, clock changes).  A fixed
computation that repeats identical work from run to run moves by that much.
To keep that drift out of the end-to-end metrics, a timer signal interrupts
the workload every ``PERIOD`` seconds of wall time and runs one *reference
slice* on the main thread: a fixed small-vector RK4 integration written here
in numpy, the same instruction mix as horizon's integrator but none of its
code, so that a change to horizon never moves the reference.  Its CPU time
is one speed sample.

A time is then reported at reference speed: the measured time multiplied
by the mean, over the slices taken while it was measured, of
``NOMINAL_S / local slice time`` (``SpeedProbe.factor``).  Scaling each
interval by the speed of that interval tracks the host better than one
factor for a whole run.

``NOMINAL_S`` is the median slice time on the machine the README describes,
so scaled times read as seconds on that machine at its usual speed.  The
slices' own time is taken out of every measurement (``spent``, ``work_time``).
"""

from __future__ import annotations

import signal
import statistics
import threading
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

import numpy as np

PERIOD = 0.05  # seconds of wall time between reference slices
NOMINAL_S = 1.45e-3  # median CPU seconds of one slice, on the machine in README.md
WINDOW = 4  # slices on either side that set the local speed
_STEPS = 60

_A = np.array([[0.0, 1.0, 0.2], [-1.0, 0.0, 0.3], [0.1, -0.3, 0.0]])


def _field(x):
    return _A @ x + np.sin(x)


def reference_slice():
    """A fixed RK4 integration of a 3-vector ODE; returns the final state."""
    x = np.array([0.1, 0.2, 0.3])
    dt = 0.01
    for _ in range(_STEPS):
        k1 = _field(x)
        k2 = _field(x + 0.5 * dt * k1)
        k3 = _field(x + 0.5 * dt * k2)
        k4 = _field(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


class SpeedProbe:
    """Runs a reference slice every PERIOD seconds while started.

    Each slice records when it ran and its CPU seconds.  ``spent`` is the
    wall time and ``cpu`` the main-thread CPU time all slices took, to be
    taken out of the measurements they interrupted.
    """

    def __init__(self):
        self.times = []  # perf_counter() at the start of each slice
        self.samples = []  # CPU seconds of each slice
        self.spent = 0.0
        self.cpu = 0.0
        self._busy = False
        self._main = threading.main_thread()
        reference_slice()  # first call outside any measurement

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives during a slice is dropped
            return
        self._busy = True
        w0, c0 = perf_counter(), thread_time()
        reference_slice()
        c1 = thread_time()
        self.times.append(w0)
        self.samples.append(c1 - c0)
        self.cpu += c1 - c0
        self.spent += perf_counter() - w0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def work_time(self) -> float:
        """CPU time of the calling thread, without the slices run on it."""
        t = thread_time()
        return t - self.cpu if threading.current_thread() is self._main else t

    def factor(self, start: float, end: float) -> float:
        """Mean over the slices in [start, end] of NOMINAL_S / local slice time.

        The local slice time is the median of the WINDOW slices on either
        side, so one slow or fast slice does not count alone.  An interval
        shorter than PERIOD uses the slice nearest to it.
        """
        n = len(self.samples)
        if n == 0:
            raise RuntimeError("the speed probe took no sample; is SIGALRM blocked?")
        lo, hi = bisect_left(self.times, start), bisect_right(self.times, end)
        if lo >= hi:
            lo = min(lo, n - 1)
            hi = lo + 1
        return statistics.fmean(
            NOMINAL_S / statistics.median(self.samples[max(0, k - WINDOW):k + WINDOW + 1])
            for k in range(lo, hi))
