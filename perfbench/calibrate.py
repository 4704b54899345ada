"""A gauge of how fast the machine runs while a worker runs the workload.

On a shared host the same Python code can run up to twice as fast in a
quiet spell as in a busy one, and a spell lasts from seconds to minutes,
so raw timings of runs made minutes apart differ more than the program's
own cost does.  ``SpeedGauge`` interleaves a small fixed reference load
with the workload: a SIGALRM handler runs ``reference_load`` every
``PERIOD_S`` seconds and times it.  The worker subtracts that time from its
timings, and ``run.py`` scales them by ``REFERENCE_S`` over the mean time of
one reference load, which gives each timing in seconds at one fixed
machine speed.  Sampling inside the workload, rather than between workers,
is what makes the gauge see the same spell the workload saw.

The load uses none of stonecheck's code, so a change to the program cannot
move it.  It mixes the interpreter operations stonecheck's hot loops use:
small-int bit arithmetic, dict and set updates and Python-level calls.
"""

from __future__ import annotations

import signal
import time

ROUNDS = 1000
PERIOD_S = 0.02
# Scaled timings read as seconds at the speed at which one reference_load()
# takes this long.  A round figure: on the 2-vCPU Intel Xeon VM of
# baseline.json, Python 3.11.7, it took 1.2 to 1.6 ms.
REFERENCE_S = 0.001


def _mix(k: int, table: dict, seen: set) -> int:
    table[k] = table.get(k, 0) + 1
    seen.add(k ^ k >> 3)
    return (k & -k).bit_length() + bin(k).count("1")


def reference_load() -> int:
    """One fixed batch of interpreter work."""
    table: dict[int, int] = {}
    seen: set[int] = set()
    acc = 0
    for i in range(ROUNDS):
        acc += _mix(i * 2654435761 & 0xFFFF, table, seen)
    return acc


class SpeedGauge:
    """Times ``reference_load`` every ``PERIOD_S`` seconds while active.

    ``busy_s`` is the time spent in the reference load so far; callers
    subtract it from the intervals they time.  The handler runs between
    bytecodes of the main thread, so it never runs inside a C call.
    """

    def __init__(self) -> None:
        self.busy_s = 0.0
        self.samples = 0

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_load()
        self.busy_s += time.perf_counter() - start
        self.samples += 1

    def __enter__(self) -> SpeedGauge:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self.samples == 0:  # a workload shorter than one period
            self.sample()

    def scale(self) -> float:
        """Factor that turns a timing taken now into reference seconds."""
        return REFERENCE_S * self.samples / self.busy_s
