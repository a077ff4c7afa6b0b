"""Speed probe: puts times taken on a shared host on one scale.

On a host whose cores are shared with other machines, the same Python code
runs up to about 1.8 times slower for minutes at a time, depending on what
the neighbours do.  No amount of repetition inside one run removes that.
The probe therefore times a fixed piece of exact rational arithmetic (the
kind of work the program does: Fraction row operations, tuples, a dict)
every PERIOD_S seconds between operations, and every time is scaled by
REF_S / (the median probe from WINDOW_S before it to WINDOW_S after it).  A scaled time reads as the time on a
machine where the probe takes exactly REF_S.  On a 2-core Intel Xeon
virtual machine the probe takes 0.5 ms when the neighbours are idle and up
to 1 ms when they are busy.

The probe is part of the benchmark, not of the program, so a change to the
program moves scaled times exactly as it moves raw ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

REF_S = 0.5e-3  # scaled times are in units of the probe's time, times this
PERIOD_S = 0.05  # probe at most this often while measuring
WINDOW_S = 0.15  # an interval is scaled by the probes within this of it
ROWS = 5  # the kernel's matrix is ROWS x (ROWS + 1)


def kernel() -> int:
    """Gauss-Jordan elimination of a fixed 5 x 6 rational matrix."""
    m = [
        [Fraction((i * 7 + j * 3 + i * j) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(ROWS + 1)]
        for i in range(ROWS)
    ]
    rows = {}
    r = 0
    for c in range(ROWS):
        piv = next((i for i in range(r, ROWS) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(ROWS):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        rows[tuple(m[r])] = r
        r += 1
    return len(rows)


def probe() -> float:
    """The fastest of three back-to-back kernel runs, in seconds.

    The collector is off meanwhile: a collection's cost depends on the
    heap the caller has built up, not on the speed of the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class Probe:
    """Probe samples over one run, and the scale factor at any moment."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at each sample
        self.values: list[float] = []  # probe seconds

    def sample(self) -> None:
        now = time.perf_counter()
        self.values.append(probe())
        self.times.append(now)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= PERIOD_S

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median probe within WINDOW_S of the interval
        from `start` to `end` (the nearest probe if none is that close)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.values[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            near = [self.values[i]]
        return REF_S / statistics.median(near)

    def run_factor(self) -> float:
        """REF_S over the median probe of the whole run."""
        return REF_S / statistics.median(self.values)
