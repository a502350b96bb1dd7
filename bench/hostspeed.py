"""Host speed, measured alongside the program, and timings scaled by it.

The benchmark shares a host whose speed drifts by tens of percent over
seconds to minutes, and the drift slows every process on it alike.  So the
benchmark times a fixed piece of reference work, interpreter loops and small
numpy calls like the program's own, SAMPLES_EACH times in a row at least
every REFERENCE_EVERY_S while it runs.  It reports each timing scaled to the
host speed at which the reference work takes REFERENCE_NOMINAL_S:

    scaled = measured * REFERENCE_NOMINAL_S / reference time near that moment

where the reference time near a moment is the median of the samples taken
within WINDOW_S of it, widened to at least MIN_SAMPLES samples.  A change to
the program moves the measured time and leaves the reference work alone.
The unscaled timings are kept in the result file.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_EVERY_S = 0.25
SAMPLES_EACH = 3
REFERENCE_NOMINAL_S = 1.6e-3
WINDOW_S = 2.5
MIN_SAMPLES = 9

_GRID = np.linspace(0.0, 1.0, 512)


def reference_work() -> float:
    """A fixed mix of interpreter and numpy work."""
    total = 0.0
    for i in range(5000):
        total += (i * 7 % 13) * 0.5
    for k in range(64):
        a = np.sin(_GRID * (k + 1))
        total += float(np.sort(a)[k] + a.sum())
    return total


def samples() -> list:
    """(start, duration) of SAMPLES_EACH back-to-back runs of the reference work,
    on the monotonic clock."""
    out = []
    for _ in range(SAMPLES_EACH):
        t0 = time.perf_counter()
        reference_work()
        out.append((t0, time.perf_counter() - t0))
    return out


class HostSpeed:
    """Reference samples of one run, and the scale factor at any moment of it."""

    def __init__(self, samples):
        pairs = sorted(tuple(p) for p in samples)
        if len(pairs) < MIN_SAMPLES:
            raise ValueError(f"{len(pairs)} reference samples; at least {MIN_SAMPLES} needed")
        self.t = [p[0] for p in pairs]
        self.s = [p[1] for p in pairs]

    def reference_at(self, t: float) -> float:
        """Median reference time within WINDOW_S of t, widened to MIN_SAMPLES samples."""
        lo = bisect.bisect_left(self.t, t - WINDOW_S)
        hi = bisect.bisect_right(self.t, t + WINDOW_S)
        while hi - lo < MIN_SAMPLES:
            if lo > 0 and (hi == len(self.t) or t - self.t[lo - 1] <= self.t[hi] - t):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.s[lo:hi])

    def scale(self, t: float) -> float:
        return REFERENCE_NOMINAL_S / self.reference_at(t)
