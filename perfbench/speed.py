"""Host speed probe: converts host seconds to reference seconds.

On a shared 2-core, 2.1 GHz Xeon virtual machine, CPU throughput was
seen to drift by up to about 2.3x from one period of minutes to the
next (the guest's load average does not show it), so host seconds of
the same code are not comparable between runs.  The parent process therefore times a fixed piece of work
(the probe) before the first step of a run and after every step.  A
step's factor is ``REFERENCE_S`` over the mean of the probes on either
side of it, raised to ``ELASTICITY``; its host seconds times that factor
are its reference seconds: what the step would have taken in a period
in which the probe takes ``REFERENCE_S``.

The probe slows more than the program does: between the host's fast
and slow periods the probe took 2.4-2.6x as long, the three workloads
2.0-2.2x.  With the plain ratio, reference seconds came out 13-28 %
lower in slow periods.  ``ELASTICITY`` is the slope of log step time
over log probe time fitted across such periods (0.82-0.84 on
``paper-cold`` and ``cube-scale`` reps); with it the two kinds of period
agree to within about 7 %.

The probe mixes what the program spends its time on: interpreted dict
and tuple work, a sort of Python objects, and numpy gathers from a
32 MB table plus an integer sort.  It is part of the
benchmark, not of the program, so a change to the program never changes
it.  It runs only in the parent, between steps, so it adds nothing to
any step's time, CPU or memory.

The probe runs on one core.  It tracks how fast a core runs, not
whether a two-worker step gets both cores; ``child.py`` pins such a
step's workers one to a core for that.  A probe on two cores at once
was tried and over-corrects, since only part of a step runs in
parallel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The probe seconds that reference seconds are scaled to.  A sample took
#: 0.15-0.19 s in fast periods of a 2-core, 2.1 GHz Xeon host and up to
#: 0.4 s in slow ones.
REFERENCE_S = 0.20
#: How step time scales with probe time between fast and slow periods.
ELASTICITY = 0.8
#: Probe units per sample.
UNITS = 4


class Speedometer:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._indices = rng.integers(0, 1 << 22, size=1 << 19)
        self._table = np.arange(1 << 22)
        self._unit()  # page the table in before anything is timed
        self.samples = []
        self.sample()

    def _unit(self) -> None:
        counts = {}
        items = []
        for i in range(40_000):
            key = (i * 2654435761) & 4095
            counts[key] = counts.get(key, 0) + i
            items.append((key, i))
        items.sort()
        for _ in range(4):
            self._table[self._indices].sum()
            np.sort(self._indices)

    def sample(self) -> float:
        """Time one sample of the probe; returns its host seconds."""
        started = time.perf_counter()
        for _ in range(UNITS):
            self._unit()
        seconds = time.perf_counter() - started
        self.samples.append(seconds)
        return seconds

    def factor(self) -> float:
        """Reference seconds per host second since the next-to-last sample."""
        return (REFERENCE_S / statistics.mean(self.samples[-2:])) ** ELASTICITY
