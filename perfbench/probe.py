"""Host-speed probe: a fixed reference kernel timed *during* a measured phase.

The machine the benchmark runs on is a few cores of a shared host, and its
speed drifts: the same timed phase, on identical inputs, in processes forked
from the same set-up, took from 1.46 s to 2.40 s within one minute, and the
slow and fast spells last tens of seconds.  A reference loop timed before
and after the phase does not follow that drift, because the speed changes
inside the phase.

:class:`SpeedProbe` samples the speed inside the phase instead.  A
``SIGALRM`` interval timer runs a small fixed kernel every ``PERIOD_S`` of
wall time, between two bytecodes of the program, and times it.  The kernel
does what the simulator does most -- allocate small objects, call Python
functions, run short numpy operations -- so a slow spell slows both alike.
The phase's host time is then reported twice:

* ``wall_s``: wall time of the phase minus the time spent in the kernel,
  i.e. the program's own host time at whatever speed the host had;
* ``scaled_s``: ``wall_s`` scaled to a host on which one kernel run takes
  ``NOMINAL_KERNEL_S``: ``wall_s * NOMINAL_KERNEL_S / typical kernel time``.

The typical kernel time is the mean of the samples without the fastest and
the slowest ``TRIM`` of them; a kernel run that a timer tick or a page fault
lands in is an outlier the program's own time averages away.  On the 2-CPU
x86_64 VM above, fifo-uncached's timed phase, forked twenty times from one
set-up, spread (IQR / median) 0.22 in wall time, 0.17 scaled by the plain
mean and 0.05 scaled by the trimmed mean; on tenants-stream and another
seed, 0.12 -> 0.04 and 0.11 -> 0.03.  The program's results do not depend
on the probe: the report digest is the same with and without it, and
``run.py`` checks that on every run.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import List

import numpy as np

#: Wall time between two kernel runs.
PERIOD_S = 0.01
#: Share of kernel samples dropped at each end before averaging.
TRIM = 0.1
#: The kernel's typical time when sampled inside a serving workload on the
#: 2-CPU x86_64 VM the benchmark was built on (Python 3.11); scaled times
#: are host seconds at that speed.
NOMINAL_KERNEL_S = 125e-6

_ARRAY = np.arange(64, dtype=np.float64)


class _Item:
    __slots__ = ("x",)

    def __init__(self, x: int) -> None:
        self.x = x


def _value(item: _Item) -> int:
    return item.x + 1


def kernel() -> float:
    """The reference work: object allocation, calls, small numpy ops."""
    total = 0.0
    for i in range(100):
        total += _value(_Item(i))
    for i in range(10):
        total += float(np.sum(_ARRAY * i))
    return total


class SpeedProbe:
    """Context manager that times the enclosed phase and samples host speed.

    Only one probe may be armed at a time (it owns ``SIGALRM``).
    """

    def __init__(self) -> None:
        self.kernel_s = 0.0
        self.samples: List[float] = []
        self.elapsed_s = 0.0
        self._start = 0.0
        self._previous = None

    def _sample(self, *_frame) -> None:
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        self.kernel_s += took
        self.samples.append(took)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_s = perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # a phase shorter than one period: sample the speed once after
            # it, and count that run in elapsed_s so wall_s stays the phase's
            self._sample()
            self.elapsed_s += self.kernel_s

    @property
    def wall_s(self) -> float:
        """Wall time of the phase without the kernel runs."""
        return self.elapsed_s - self.kernel_s

    @property
    def speed(self) -> float:
        """Host speed relative to the nominal host (>1: faster)."""
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        kept = ordered[cut:len(ordered) - cut]
        return NOMINAL_KERNEL_S / (sum(kept) / len(kept))

    @property
    def scaled_s(self) -> float:
        """The phase's host time on the nominal host."""
        return self.wall_s * self.speed
