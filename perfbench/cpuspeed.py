"""Scale wall times to a fixed reference CPU speed.

On a shared host the CPU speed a process gets swings by a third or more,
in phases that last from a second to minutes, as other tenants' load
comes and goes: on a 2-vCPU x86_64 virtual machine a fixed pure-Python
loop alternated between about 24 and 36 ms.  A wall time taken in a slow
phase is then indistinguishable from a slower program.

``SpeedSampler`` times a short fixed reference kernel every ``PERIOD_S``
seconds from a ``SIGALRM`` handler, in the measured process and on its
CPU, while a region runs.  ``measure`` returns the region's wall time
and the factor ``REF_KERNEL_S / mean(kernel time)`` that rescales it to
the speed at which the kernel takes ``REF_KERNEL_S``.  The kernel mixes
the kinds of work the workloads do (an interpreted loop, ``quad`` calling
back into Python, numpy calls on small arrays, a pass over and a sort of
arrays larger than the L1 and L2 caches), because contention slows them
by different amounts, call-heavy code the most; it costs under 1% of the
region.  Work the region does in other processes is only rescaled as far
as their CPU's speed follows this one's.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.integrate import quad

# Kernel time at the reference speed: the fast phase of a 2-vCPU x86_64
# host running Python 3.11, numpy 2.4 and scipy 1.17.
REF_KERNEL_S = 4.7e-4
PERIOD_S = 0.1
WARMUP_RUNS = 5
_SMALL = np.linspace(0.0, 1.0, 2000)
_LARGE = np.random.default_rng(0).random(200_000)


def _integrand(u):
    return float(np.exp(-3.0 * np.asarray(u)))


def reference_kernel() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    for _ in range(3):
        quad(_integrand, 0.0, 1.0, epsabs=1e-10, limit=50)
    for _ in range(2):
        np.searchsorted(_SMALL, np.exp(-_SMALL))
    _LARGE.sum()
    np.sort(_LARGE[:20_000])
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the reference kernel while installed; a context manager."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, _signum, _frame):
        self.samples.append(reference_kernel())

    def __enter__(self) -> "SpeedSampler":
        for _ in range(WARMUP_RUNS):  # the first calls pay one-time costs
            reference_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn):
        """Run ``fn()``; return (its result, wall seconds, speed factor).

        The factor averages every kernel sample taken during the call plus
        one just before and one just after it, so even a call shorter
        than the sampling period gets one.
        """
        self.samples = [reference_kernel()]
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.samples.append(reference_kernel())
        return result, wall, REF_KERNEL_S * len(self.samples) / sum(self.samples)
