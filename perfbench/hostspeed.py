"""Host speed, from a fixed reference loop timed between ops.

The machine this benchmark runs on is shared: its speed switches between a
fast and a slow mode several times a second, and the share of time in each
drifts by 20-40% over minutes.  Raw wall times of two runs minutes apart
therefore differ as much as a real regression would.  The benchmark times
a fixed loop of interpreter and small-array work, the same mix as the
solver's inner loop, between ops; the run's mean loop time against
NOMINAL_S is the host's slowdown during the run, and time metrics are
reported divided by it.  The loop never changes with pqlab, so a faster
pqlab still shows as a lower time.
"""

from __future__ import annotations

import time
from statistics import mean

import numpy as np

# Mean reference-loop time on the 2-vCPU host where the baseline was taken
# (Python 3.11.7, numpy 2.4.6); times are reported at this host speed.
NOMINAL_S = 0.015
# Loops per sample, and the least op time between two samples.
LOOPS = 3
EVERY_S = 0.5


def reference_loop() -> float:
    """Wall time of a fixed piece of work (about 10-20 ms)."""
    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 65)
    s = 0.0
    for _ in range(2000):
        b = np.diff(a) * 64.0
        s += float((b * b).sum())
        for j in range(20):
            s += j * 0.5
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-loop samples of one run."""

    def __init__(self):
        self.samples = []
        self._last = time.perf_counter()

    def sample(self, loops: int = LOOPS) -> None:
        self.samples += [reference_loop() for _ in range(loops)]
        self._last = time.perf_counter()

    def between_ops(self) -> None:
        """Take a sample once at least EVERY_S has passed since the last."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def slowdown(self) -> float:
        """Mean loop time over NOMINAL_S: 1 at the nominal speed, 2 when
        the host ran at half of it."""
        return mean(self.samples) / NOMINAL_S
