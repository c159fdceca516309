"""Reference-speed timing: wall times scaled by a fixed reference kernel.

The shared host of the baseline in NOTES.md switches between a fast and a
slow speed (up to 2x apart) for stretches of seconds to minutes. A run's
plain wall-time median follows whichever speed held most of the run, so it
spreads by up to 0.5 over seeds. Here every stretch of timed work (a lap) is
bracketed by two readings of a fixed reference kernel that does not call
the package, and the lap is scaled by

    REFERENCE_S / mean(reading before, reading after)

so that it reads as the time the work would take at the host speed where the
kernel takes ``REFERENCE_S``. The kernel mixes the kinds of work the
workloads do (many small numpy calls, interpreter loops, a small dense
product and memory-bound reads), because the slow speed slows each kind by
a different factor (measured: 1.7x, 1.4x, 1.4x and 1.2x). Scaled this way,
the slow speed reads within about 15% of the fast one on every workload,
where plain wall time reads 1.1x to 1.6x slower.

A change to the package moves the scaled times just as it moves wall time;
the kernel only sets the unit.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Seconds the kernel takes at the reference speed (the fast speed of the
#: baseline host).
REFERENCE_S = 0.010

_gen = np.random.default_rng(0)
_TINY = _gen.standard_normal(4) + 0j
_SQUARE = _gen.standard_normal((48, 48))
_STREAM = _gen.standard_normal(1 << 20)


def reference_kernel() -> float:
    """Fixed work, independent of the package; returns a checksum."""
    x = _TINY
    for _ in range(100):  # per-call overhead of small numpy operations
        x = np.kron(x[:4], _TINY)
        x = x / np.linalg.norm(x)
    total = 0
    for i in range(15000):  # interpreter loop
        total += i * i
    for _ in range(40):  # small dense products
        _SQUARE @ _SQUARE
    for _ in range(4):  # memory-bound reads of 8 MB
        total += _STREAM.sum() > 0
    return float(abs(x[0])) + total


def reading() -> float:
    """Seconds one run of the reference kernel takes now."""
    began = perf_counter()
    reference_kernel()
    return perf_counter() - began


class Stopwatch:
    """Wall and reference-speed time of work split into laps.

    ``restart`` zeroes the totals and starts a lap; ``lap`` ends the current
    lap, takes a reading and starts the next one. The reading that ends one
    lap also begins the next, so each lap costs one reading. ``readings``
    keeps every reading.
    """

    def __init__(self):
        self.before = reading()
        self.readings = [self.before]
        self.restart()

    def restart(self) -> None:
        self.wall = 0.0
        self.scaled = 0.0
        self.mark = perf_counter()

    def lap(self) -> None:
        elapsed = perf_counter() - self.mark
        after = reading()
        self.wall += elapsed
        self.scaled += elapsed * REFERENCE_S * 2.0 / (self.before + after)
        self.readings.append(after)
        self.before = after
        self.mark = perf_counter()
