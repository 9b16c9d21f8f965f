"""Machine-speed calibration for the benchmark's timings.

The virtual machines this benchmark runs on change speed for minutes at
a time (the same placement call takes 200 ms in one minute and 330 ms in
the next), by more than any regression bound could absorb.  So every
measured process also times :func:`kernel`, a fixed mix of interpreter
and NumPy work owned by the benchmark, on the same CPU and interleaved
with the program's work, and each timing is reported scaled to the
kernel's reference time::

    scaled_s = wall_s * REFERENCE_KERNEL_S / kernel_s

A change to the program moves ``wall_s`` and not ``kernel_s``, so it
shows in full; a change in machine speed moves both and cancels.  The
raw wall times go to standard error.

Set-up time (the program's imports, a server's boot) is scaled by the
kernel samples taken during the set-up alone, which come every
``SETUP_PERIOD_S``: over twenty fresh processes the quartile spread of
set-up was 0.15-0.18 raw, 0.18-0.20 scaled by the kernel of the work
after it, and 0.08 scaled by its own samples.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: the kernel's median time on the machine the benchmark was built on
#: (2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11, NumPy 2.4)
REFERENCE_KERNEL_S = 0.021

#: seconds between two samples of a :class:`Sampler` during a
#: process's set-up (about a second of imports) and after it
SETUP_PERIOD_S = 0.1
SAMPLE_PERIOD_S = 0.5

_RNG = np.random.default_rng(0)


def kernel(clock=time.perf_counter) -> float:
    """Run the calibration kernel once; returns its time in seconds on
    ``clock``.

    Interpreter loops and dict inserts, a few passes over a large array,
    and many small-array NumPy calls: the same kinds of work as the
    program.  It imports nothing, so it may run inside a signal handler
    that interrupts an import.
    """
    t0 = clock()
    x = 0
    for i in range(50_000):
        x += i * i % 7
    d = {}
    for i in range(15_000):
        d[i] = (i, x)
    a = _RNG.random(75_000)
    np.sort(a)
    np.cumsum(a)
    float((a * a + 1.0).sum())
    s = 0.0
    for i in range(750):
        s += float((np.arange(16.0) * i).sum())
        sorted([(j % 7, j) for j in range(20)])
    return clock() - t0


def scale(wall_s: float, kernel_s: float) -> float:
    """``wall_s`` at the reference speed, given the kernel's time then."""
    return wall_s * REFERENCE_KERNEL_S / kernel_s


class Sampler:
    """Times :func:`kernel` from a ``SIGALRM`` handler, so the samples
    interleave with whatever the main thread runs (the handler runs
    between two bytecodes of it): every ``SETUP_PERIOD_S`` seconds until
    :meth:`ready`, then every ``SAMPLE_PERIOD_S``.  ``samples[:n_setup]``
    are the set-up's samples.

    ``spent`` is the time the samples took; subtract it from a timing
    that spans them.  In a process whose other threads compete for the
    interpreter lock, time the kernel on ``time.thread_time``, so a
    sample excludes the time those threads ran; ``ticks`` then holds
    each sample's ``(start, end, time)``, start and end on
    ``time.perf_counter`` (one clock for every process on the machine),
    so another process can take the samples' time out of its timings
    (:func:`stolen`).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.samples: list = []
        self.ticks: list = []
        self.spent = 0.0
        self.n_setup = 0
        self._period = SETUP_PERIOD_S

    def take(self, sample: bool = True) -> float:
        """Time the kernel once, now; returns its time.  With ``sample``
        false the time is spent but not kept as a sample."""
        t0 = time.perf_counter()
        dt = kernel(self.clock)
        if sample:
            self.samples.append(dt)
        self.ticks.append((t0, time.perf_counter(), dt))
        self.spent += dt
        return dt

    def _tick(self, _signum, _frame) -> None:
        self.take()
        signal.setitimer(signal.ITIMER_REAL, self._period)

    def start(self) -> "Sampler":
        """Start sampling; the kernel's first run (cold caches, two to
        three times slower) is not a sample."""
        self.take(sample=False)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._period)
        return self

    def ready(self) -> None:
        """End of set-up: the samples so far are the set-up's."""
        self.n_setup = len(self.samples)
        self._period = SAMPLE_PERIOD_S

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def stolen(ticks, lo: float, hi: float) -> float:
    """The part of :class:`Sampler` ``ticks`` that fell inside the
    ``perf_counter`` interval ``[lo, hi]``: each tick's kernel time,
    weighted by the share of its wall interval inside."""
    total = 0.0
    for t0, t1, dt in ticks:
        inside = min(t1, hi) - max(t0, lo)
        if inside > 0:
            total += dt * inside / (t1 - t0)
    return total
