"""Host-speed calibration for the end-to-end times.

On a shared two-CPU host the speed of one CPU swings by up to 1.8x, over
periods from a second to minutes, with wall and CPU time moving together
(the process is not descheduled; the core itself runs slower).  Raw
wall-clock medians of 30-second runs then spread 20-34% between runs of
identical work, more than any useful regression bound.

So the benchmark times a fixed kernel of its own between ops and scales
each op's wall time by ``reference_seconds / kernel time`` measured around
it: the figure is the op's time on a host that runs the kernel in exactly
``reference_seconds``.  The kernels are benchmark code, so a change to the
toolkit moves scaled and raw times alike.  There are two kernels, because
the host slows a fresh process differently from a running one:

* ``compute_speed`` for ops run in this process: the reference CPTP
  projection of one fixed non-physical matrix, the same small-matrix numpy
  calls and Python overhead the toolkit makes (reference 1 ms);
* ``spawn_speed`` for timings of child processes (``cli-chain`` commands and
  set-up): a fresh interpreter that imports numpy (reference 100 ms).  Over
  150 s of ``qpt simulate`` runs, block medians of its wall time varied by
  17% raw, 18% scaled by the compute kernel and 5% scaled by this one.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable

import numpy as np

from reference import dephasing_chi, reference_projection

_rng = np.random.default_rng(5)
_noise = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
# About 40 Dykstra iterations: close to 1 ms on the host the benchmark was
# built on.
KERNEL_INPUT = dephasing_chi(0.8) + 0.05 * (_noise + _noise.conj().T)
SPAWN_KERNEL_CODE = "import numpy"


class HostSpeed:
    """Timings of one kernel, by when they were taken."""

    def __init__(
        self, measure: Callable[[], float], reference_seconds: float, interval: float
    ):
        self.measure = measure
        self.reference_seconds = reference_seconds
        # Between ops, probe again once this long has passed since the last
        # probe; ops longer than this get a probe on each side.
        self.interval = interval
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def probe(self) -> None:
        self.starts.append(time.perf_counter())
        self.seconds.append(self.measure())

    def probe_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= self.interval:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns wall time in ``[start, end]`` into reference time.

        Uses the last probe before ``start`` and the first one after
        ``end``, whichever exist.
        """
        before = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, end)
        nearby = [self.seconds[i] for i in (before, after) if 0 <= i < len(self.seconds)]
        if not nearby:
            raise ValueError("no kernel probe to scale by")
        return self.reference_seconds / statistics.fmean(nearby)


def _compute_kernel() -> float:
    """Median of three back-to-back runs of the reference projection."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        reference_projection(KERNEL_INPUT)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def compute_speed() -> HostSpeed:
    return HostSpeed(_compute_kernel, 1e-3, 0.05)


def spawn_speed(run_child: Callable[[list[str]], float]) -> HostSpeed:
    """``run_child(argv)`` runs ``python -c argv...`` and returns its wall time."""
    return HostSpeed(lambda: run_child(["-c", SPAWN_KERNEL_CODE]), 0.1, 1.0)
