"""Tracks the speed of the cores the benchmark runs on, to take their
drift out of the times the benchmark reports.

On a few cores of a shared host the same Newton solve was seen to take
anywhere from 0.34 s to 0.72 s, in stretches of a second to minutes, as
other tenants load the machine, and the two cores of one such host at
times differed in speed by a factor of two.  Process CPU time drifts
with the wall time, so it is the cores that slow, not the scheduler that
takes them away.

A fixed reference kernel (small numpy operations, a Python loop and a
small LU solve, the mix semdde spends its time in) is timed ``BRACKET``
times right before and right after every op and, from a wall-clock
timer, every ``INTERVAL`` seconds while the op runs.  For an op that runs
in this process the samples time the core the op runs on.  For an op
that waits on child processes, each sample is pinned to the next core
in turn, so the samples time every core the children may use; the woken
parent takes a core from a child for about a millisecond each time.  An
op's time is its wall time less the kernel's own time, in units of the
kernel's mean time around and during the op (the median time, for an
op with children), given in seconds at the kernel's full-speed time
``KERNEL_SECONDS``:

    time = (wall - kernel time inside) / mean kernel sample * KERNEL_SECONDS

Over five minutes in which the raw time of one repeated in-process solve
moved by a third, this ratio moved by 2%.  The kernel never calls
semdde, so a faster program gives smaller times, and an unchanged
program the same times however loaded the host is.
"""

from __future__ import annotations

import itertools
import os
import signal
import statistics
from time import perf_counter
from typing import List, Tuple

import numpy as np
import scipy.linalg

#: seconds between kernel samples while an op runs
INTERVAL = 0.1

#: kernel samples taken right before and right after every op
BRACKET = 4

#: the kernel's time at full speed: the fastest twentieth of its samples
#: on a 2-core Intel Xeon host (Python 3.11, numpy 2.4, scipy-openblas)
KERNEL_SECONDS = 0.0008

_RNG = np.random.default_rng(20250727)
_MATRIX = _RNG.standard_normal((96, 96)) + 96.0 * np.eye(96)
_VECTOR = _RNG.standard_normal(96)


def reference_kernel() -> float:
    """About a millisecond of the kind of work semdde does."""
    total = 0.0
    x = _VECTOR
    for i in range(200):
        y = np.sin(x * (1.0 + 1e-3 * i)) + x * x
        total += float(y[i % 96])
    factors = scipy.linalg.lu_factor(_MATRIX)
    return total + float(scipy.linalg.lu_solve(factors, _VECTOR)[0])


class Speedometer:
    """Kernel samples of one run, as (end time, kernel seconds)."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._cores = sorted(os.sched_getaffinity(0))
        self._next_core = itertools.cycle(self._cores)
        self._pinned = False

    def sample(self) -> None:
        if self._pinned:
            os.sched_setaffinity(0, {next(self._next_core)})
        start = perf_counter()
        reference_kernel()
        end = perf_counter()
        if self._pinned:
            os.sched_setaffinity(0, self._cores)
        self.samples.append((end, end - start))

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def measure(self, run, children: bool = False):
        """Run ``run()`` between kernel samples, with timer samples
        inside; ``children`` pins each sample to the next core in turn.
        Returns (value, error, start, wall, kernel seconds inside, mean
        kernel sample); ``error`` is the exception ``run`` raised, or
        None."""
        self._pinned = children and len(self._cores) > 1
        first = len(self.samples)
        for _ in range(BRACKET):
            self.sample()
        before = len(self.samples)
        value = error = None
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        start = perf_counter()
        try:
            value = run()
        except Exception as exc:  # the caller counts the op as failed
            error = exc
        finally:
            wall = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        inside = [k for _, k in self.samples[before:]]
        for _ in range(BRACKET):
            self.sample()
        self._pinned = False
        # a sample taken while children hold the cores now and then waits
        # for one, so their op takes the median sample, not the mean
        around = [k for _, k in self.samples[first:]]
        mean = statistics.median(around) if children \
            else statistics.fmean(around)
        return value, error, start, wall, sum(inside), mean

    def window(self, start: float, end: float,
               fallback: float) -> Tuple[float, float]:
        """(kernel seconds inside, mean kernel sample) of the samples that
        ended within ``INTERVAL`` of the span from start to end; the
        kernel seconds count only the samples inside the span.  The mean
        is ``fallback`` when a long call into compiled code held off
        every sample."""
        near = [(e, k) for e, k in self.samples
                if start - INTERVAL <= e <= end + INTERVAL]
        inside = sum(k for e, k in near if start <= e - k and e <= end)
        return inside, statistics.fmean(k for _, k in near) if near \
            else fallback


def corrected(wall: float, inside: float, mean: float) -> float:
    """An op's time at the kernel's full speed (see the module text)."""
    return (wall - inside) / mean * KERNEL_SECONDS
