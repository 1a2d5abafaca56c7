"""Timings scaled to a nominal host speed by a calibration loop run next to them.

The host this benchmark was built on alternates between fast phases and
phases about 1.8 times slower, lasting from a few seconds to over half a
minute; CPU time slows as much as wall time, and no steal time shows.  A
run of tens of seconds can therefore fall wholly inside a slow phase, and
neither longer runs nor medians make raw timings repeat.  So every timing
is divided by the time of a fixed calibration loop measured just before it
(and averaged with one just after it, for long timings), and multiplied by
``NOMINAL_S``, that loop's time in a fast phase.  The result reads as
seconds on the host at its fast-phase speed.

The loop does the kinds of work the program does (rational arithmetic,
big-integer remainders, small numpy calls) and never calls micz9, so no
change to the program can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.0051  # median-of-3 loop time in a fast phase on the measurement host
RECALIBRATE_S = 0.2  # a calibration older than this is measured again


def _loop() -> None:
    acc = Fraction(0)
    for i in range(1, 480):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    big = 3**400
    r = 0
    for p in range(3, 6000, 2):
        r += big % p
    v = np.arange(8.0)
    for _ in range(1200):
        v = np.sqrt(v * v + 1.0) - 0.5


def calibrate() -> float:
    """Seconds the calibration loop takes now (median of three passes)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Scales raw timings to the nominal host speed."""

    def __init__(self):
        self.samples: list[float] = []
        self._recalibrate()

    def _recalibrate(self) -> None:
        self.cal = calibrate()
        self.when = time.perf_counter()
        self.samples.append(self.cal)

    def measure(self, fn, *args):
        """Call fn(*args), whose result starts with raw seconds; (scaled seconds, result)."""
        if time.perf_counter() - self.when > RECALIBRATE_S:
            self._recalibrate()
        before = self.cal
        result = fn(*args)
        cal = before
        if result[0] > RECALIBRATE_S:
            self._recalibrate()
            cal = (before + self.cal) / 2
        return result[0] * NOMINAL_S / cal, result
