"""Machine-speed calibration.

On a shared machine the speed of a fixed computation drifts: on the 2-core
VM this benchmark was written on it varied by up to 2x within a minute,
in phases lasting from one second to tens of seconds.  CPU time drifts with
wall time, so the drift is contention for the core rather than preemption.
Uncorrected, 25 s runs of canon-scale read between 26% below and 19%
above the median throughput of five.

So every timed run also times `reference()` from time to time: a fixed
pure-Python computation, independent of tropoly, in the same exact
rational arithmetic the kernel spends its time on.  A command's wall time
is multiplied by NOMINAL_S / (the reference's time around it), which
states it in the time it would take on a machine where the reference takes
NOMINAL_S.  The raw wall-clock figures are printed in the summary line.
"""

from __future__ import annotations

import random
from fractions import Fraction
from statistics import median
from time import perf_counter

NOMINAL_S = 0.0025  # about the reference's time on that VM when unloaded
PERIOD_S = 0.25  # command time between two timings of the reference


def reference():
    """Exact Gaussian elimination of one fixed 8 x 9 rational matrix."""
    rng = random.Random(0)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(9)] for _ in range(8)]
    for col in range(8):
        pivot = next(i for i in range(col, 8) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(8):
            if i != col and rows[i][col]:
                f = rows[i][col] / rows[col][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return rows


def time_reference():
    start = perf_counter()
    reference()
    return perf_counter() - start


class Speedometer:
    """Reference timings interleaved with the commands of one run."""

    def __init__(self):
        self.timings = []
        self._since = PERIOD_S

    def tick(self):
        """Before a command: time the reference if PERIOD_S of command time
        has passed.  Returns the index of the latest timing."""
        if self._since >= PERIOD_S:
            self.timings.append(time_reference())
            self._since = 0.0
        return len(self.timings) - 1

    def tock(self, elapsed):
        self._since += elapsed

    def close(self):
        """After the last command, so that it has a timing on both sides."""
        self.timings.append(time_reference())

    def factor(self, index):
        """NOMINAL_S over the reference's time around timing `index`: the
        median of that timing and its two neighbours."""
        return NOMINAL_S / median(self.timings[max(0, index - 1): index + 2])

    def run_factor(self):
        return NOMINAL_S / median(self.timings)
