"""Host-speed reference for the benchmark's timings.

On a shared 2-core VM the CPU speed seen by one process switches between
two levels about 1.6x apart, often within a second, and the mix drifts
over minutes, so raw case times of the same code spread wider than the
bounds in BENCHMARK.json.  The benchmark therefore times a fixed piece of
reference work, which uses nothing from traceinv, every EVERY_S of case
time and reports case times scaled to the host speed at which that work
takes ``NOMINAL_S``:

    scaled time = raw time * NOMINAL_S / median of the reference times nearby

A change to the program moves its case times and not the reference, so
the scaled times show the change and drop most of the host's swings.
The raw times are kept beside the scaled ones in the result file.  Set-up
time is not scaled: it runs in a fresh process, whose speed the parent's
samples did not track.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median reference time on a 2-core Intel Xeon VM at 2.0 GHz (Python 3,
# numpy, one BLAS thread).  Any constant gives the same ratios between
# runs; this one keeps scaled times close to raw ones.
NOMINAL_S = 0.0015
EVERY_S = 0.025  # case time between two reference samples
NEIGHBOURS = 3  # reference samples on each side of a window of cases

_VEC = np.linspace(0.0, 1.0, 64)


def _work():
    """Interpreter loop plus small numpy calls, like one step of the attack."""
    acc = 0
    for i in range(9000):
        acc += (i * i) % 7
    vec = _VEC
    for _ in range(150):
        vec = np.sqrt(vec * vec + 1.0)
    return acc, vec


def sample():
    """One timing of the reference work: one reading of host speed.

    Not a minimum of repeats: a preempted or slowed reading is kept, so
    that stalls which slow the cases nearby also scale them."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Clock:
    """Collects case walls between reference samples taken every EVERY_S."""

    def __init__(self):
        self.refs = [sample()]
        self.windows = [[]]  # windows[i]: walls between refs[i] and refs[i + 1]
        self._due = EVERY_S

    def add(self, wall):
        self.windows[-1].append(wall)
        self._due -= wall
        if self._due <= 0:
            self.close_window()

    def close_window(self):
        if self.windows[-1]:
            self.refs.append(sample())
            self.windows.append([])
            self._due = EVERY_S

    def scaled(self):
        """Every wall so far in order, scaled by the median of the
        reference samples nearest its window."""
        self.close_window()
        out = []
        for i, walls in enumerate(self.windows):
            if walls:
                near = self.refs[max(0, i + 1 - NEIGHBOURS): i + 1 + NEIGHBOURS]
                factor = NOMINAL_S / statistics.median(near)
                out.extend(w * factor for w in walls)
        return out
