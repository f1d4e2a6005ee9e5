"""Correction of the benchmark's timings for host CPU contention.

On a shared host the core this process runs on is contended on and off:
for seconds at a time everything runs up to ~1.8x slower, which spreads
the wall time of identical passes by 20-30% (NOTES.md).  The sampler
measures that slowdown while the workload runs.  Every INTERVAL_S of wall
time a SIGALRM handler runs a fixed reference slice, a small DOP853
integration (the same kind of interpreter-bound work the library does),
and records how long it took.

`clock()` is a wall clock that excludes the time spent in slices.  For an
interval of `clock()` time, `factor(start, end)` is the mean of
REF_SLICE_S / duration over the slices taken in it.  The interval times
the factor is the time the interval would have taken with the reference
slice running at REF_SLICE_S throughout, its speed on an uncontended core
of the machine the baselines were recorded on.
"""

import signal
import time

import numpy as np
from scipy.integrate import solve_ivp

INTERVAL_S = 0.1
REF_SLICE_S = 0.8e-3

_J = np.array([[0.0, 1.0, 0.0, 0.0],
               [-1.0, -0.1, 0.2, 0.0],
               [0.0, 0.0, 0.0, 1.0],
               [0.1, 0.0, -2.0, -0.1]])
_X0 = np.full(4, 0.1)


def _field(t, x):
    return _J @ x + 0.1 * x**3


def reference_slice():
    solve_ivp(_field, (0.0, 2.0), _X0, method="DOP853", rtol=1e-9, atol=1e-12)


class ContentionSampler:
    """Context manager sampling the reference slice while it is open."""

    def __init__(self):
        self.slices = []        # (clock() at the slice, its duration)
        self.paused = 0.0
        self._previous = None

    def clock(self):
        return time.perf_counter() - self.paused

    def _sample(self, signum=None, frame=None):
        t = time.perf_counter()
        reference_slice()
        dt = time.perf_counter() - t
        self.slices.append((t - self.paused, dt))
        self.paused += dt

    def __enter__(self):
        reference_slice()       # warm-up, not recorded
        self._sample()          # so that factor() always has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, start=-np.inf, end=np.inf):
        """Contention factor over [start, end) of clock(); all slices if none fall in it."""
        durations = ([dt for t, dt in self.slices if start <= t < end]
                     or [dt for _, dt in self.slices])
        return REF_SLICE_S * float(np.mean(1.0 / np.asarray(durations)))
