"""Machine-speed samples, for times that do not follow a shared host's drift.

On a shared host the speed of a core drifts by tens of percent within
seconds and between minutes, and every piece of work slows together.  The
benchmark therefore times, alongside the library, a fixed reference kernel
that uses no gbjtest code: a Python scalar loop, numpy element-wise work,
scipy special functions and small LAPACK calls, the same mix gbjtest runs.
A time is rescaled by ``REF_NOMINAL_S`` over the kernel's time measured
around it, giving seconds at reference speed: the speed at which one kernel
call takes ``REF_NOMINAL_S``.  A change to gbjtest moves such a time in
full; a slower or faster host moves it hardly at all.

``Sampler`` times the kernel from a ``SIGALRM`` handler ``PERIOD_S`` seconds
of wall time after the previous sample, so long items are sampled throughout.  The handler's
time is subtracted from the item that it interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.special import ndtr, ndtri

REF_NOMINAL_S = 0.004
PERIOD_S = 0.25
WINDOW_S = 0.5
_ROUNDS = 14

_rng = np.random.default_rng(20171006)
_X = _rng.standard_normal(1024)
_U = _rng.uniform(0.01, 0.99, size=1024)
_P = _rng.standard_normal(20_000)               # pair-sized arrays, as at d = 200
_T = _rng.uniform(0.0, 1.0, size=(200, 200))
_A = _rng.standard_normal((20, 20))
_M = _A @ _A.T + 20.0 * np.eye(20)


def kernel() -> float:
    """The fixed reference work, about ``REF_NOMINAL_S`` long."""
    s = 0.0
    for i in range(_ROUNDS):
        x = _X * (1.0 + 1e-3 * i)
        s += float(np.sum(np.log1p(-ndtr(x) + 1e-300)))
        s += float(np.sum(ndtri(_U)[::7]))
        s += float(np.where(x > 0.5, np.exp(-x), 0.0).max())
        s += float(np.linalg.eigvalsh(_M)[0]) + float(np.linalg.cholesky(_M)[3, 3])
        if i % 3 == 0:
            p = _P * (1.0 + 1e-3 * i)
            s += float(np.clip(np.exp(-0.5 * p * p) / (1.0 + np.abs(p)), 0.0, 0.5).sum())
            s += float(np.cumsum(np.log1p(_T), axis=1)[-1, -1])
        for j in range(1200):
            s += (j * 0.5) ** 0.5
    return s


def time_kernel(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` kernel calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def factor_at(samples, start: float, end: float, window: float = WINDOW_S) -> float:
    """Median kernel time among ``samples`` ((start, seconds) pairs, sorted
    by start) that began within ``window`` of [start, end]; the sample
    nearest to that interval when none did."""
    near = [d for t, d in samples if start - window <= t <= end + window]
    if near:
        return statistics.median(near)
    nearest = min(samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))
    return nearest[1]


def rescale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while one kernel call took ``kernel_s``, as
    seconds at reference speed."""
    return seconds * REF_NOMINAL_S / kernel_s


class Sampler:
    """Times the kernel ``period`` seconds after each sample while started.

    Each sample runs the kernel twice and times the second call, so that the
    kernel's data are in cache and its time does not depend on what the
    interrupted work left there.  ``samples`` holds (start, kernel seconds);
    ``busy(a, b)`` is the handler time that began within [a, b], to subtract
    from work timed over that interval.  Single-threaded use on the main
    thread only."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self._handled: list[tuple[float, float]] = []
        self._previous = None
        self._running = False

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        mid = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((start, end - mid))
        self._handled.append((start, end - start))
        # re-armed only now, so a slow sample never interrupts itself
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def start(self) -> None:
        self.samples.append((time.perf_counter(), time_kernel()))
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.samples.append((time.perf_counter(), time_kernel()))

    def busy(self, start: float, end: float) -> float:
        return sum(d for t, d in self._handled if start <= t <= end)
