"""Reference kernels that measure how fast the host runs at a given moment.

On the shared 2-core VM where this benchmark was written, the speed of one
core swings by up to 2x within seconds, and its average over a minute
drifts by about 30%.  Timing a fixed kernel next to the work and dividing
by it gives a cost that does not depend on that state.  Neither kernel
touches bohmosc, so a change to the program moves only the numerator.

This module imports nothing outside the standard library at load time, so
a fresh process can time a kernel before it imports numpy or bohmosc.
"""

from __future__ import annotations

import signal
from time import perf_counter

REFERENCE_REPS = 300
PROBE_INTERVAL_S = 0.25  # SpeedProbe: seconds between samples
PROBE_REPS = 20  # SpeedProbe: kernel round trips per sample

# Python kernel time that setup costs are scaled to: setup_s is in seconds
# of a host on which python_kernel_seconds() takes 20 ms.  The host where
# the benchmark was defined took 16-23 ms, so there setup_s stays close to
# the raw import time.
PYTHON_KERNEL_NOMINAL_S = 0.020

_PYTHON_KERNEL_SOURCE = "def f(x):\n    return [i * x for i in range(50)]\n" * 20


def reference_seconds(reps=REFERENCE_REPS):
    """Time `reps` FFT round trips of a 512-point complex vector with a
    phase multiply: the mix of small-array numpy calls and interpreter
    work that the benchmark's jobs are made of."""
    import numpy as np

    k = np.fft.fftfreq(512)
    x = np.exp(2j * np.pi * k)
    start = perf_counter()
    for _ in range(reps):
        x = np.fft.ifft(np.exp(-1j * k) * np.fft.fft(x))
    return perf_counter() - start


def python_kernel_seconds(reps=20):
    """Time `reps` compilations and executions of a fixed source text: the
    interpreter work that importing a package is made of."""
    start = perf_counter()
    for _ in range(reps):
        exec(compile(_PYTHON_KERNEL_SOURCE, "<kernel>", "exec"), {})
    return perf_counter() - start


def timed_import(module):
    """Import `module`, timing the Python kernel before and after.

    Returns (import seconds, import seconds scaled to the nominal kernel
    time)."""
    import importlib

    python_kernel_seconds(2)  # let the first call's one-off costs pass
    before = python_kernel_seconds()
    start = perf_counter()
    importlib.import_module(module)
    seconds = perf_counter() - start
    after = python_kernel_seconds()
    return seconds, seconds * PYTHON_KERNEL_NOMINAL_S / ((before + after) / 2)


class SpeedProbe:
    """Samples the reference kernel every PROBE_INTERVAL_S while a job runs.

    A job of several seconds can span a change of the host's speed, which
    the kernel runs before and after it would miss.  The samples come from
    a SIGALRM handler, which Python runs in the main thread between
    bytecodes; each one interrupts the job for about a millisecond.
    `spent` is the time the samples took, for the caller to subtract.
    """

    def __init__(self):
        self.per_rep = []  # seconds per kernel round trip, one per sample
        self.spent = 0.0
        self._previous = None

    def _sample(self, _signum, _frame):
        start = perf_counter()
        self.per_rep.append(reference_seconds(PROBE_REPS) / PROBE_REPS)
        self.spent += perf_counter() - start

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
