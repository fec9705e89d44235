"""A gauge of how fast the host runs Python right now.

The benchmark shares its machine: the same op took between 0.69 and 1.09 s
over ninety seconds of back-to-back runs on a shared 2-core machine, with nothing of
its own running.  While a ``HostSpeed`` is active, a timer interrupts the
main thread every ``INTERVAL_S`` and runs a fixed probe: exact rational
elimination, integer determinants and set work, the same kinds of work polyk
does, but in code of its own, so no change to polyk moves it.  Timings are
then rescaled to a host on which the probe takes ``REFERENCE_S``.  The time
spent in probes is kept apart so it can be taken out of the timed ops.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.1
MIN_SAMPLES = 5
# The probe's median on the reference host; a fixed constant, so that a
# rescaled time reads as seconds on a host of that speed.
REFERENCE_S = 0.004

_MATRIX = [[Fraction((3 * i + 5 * j * j + 1) % 13 - 6, 1 + (i + j) % 3) for j in range(7)]
           for i in range(6)]
_SETS = [frozenset(range(k, 60, 1 + k % 5)) for k in range(24)]


def probe() -> int:
    """Fixed work of about 4 ms on the reference host."""
    return sum(_probe_round() for _ in range(4))


def _probe_round() -> int:
    """Rank of a 6x7 rational matrix, a Bareiss determinant and pairwise set
    intersections.  Returns a checksum so nothing is skipped."""
    a = [row[:] for row in _MATRIX]
    rank = 0
    for col in range(7):
        pivot = next((i for i in range(rank, 6) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(6):
            if i != rank and a[i][col] != 0:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    m = [[(3 * i * i + 7 * j + 2) % 17 - 8 for j in range(6)] for i in range(6)]
    prev = 1
    for k in range(5):
        if m[k][k] == 0:
            return -1
        for i in range(k + 1, 6):
            for j in range(k + 1, 6):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    overlap = sum(len(s & t) for s in _SETS for t in _SETS)
    return rank + m[5][5] + overlap


class HostSpeed:
    """Samples ``probe`` on a timer while active (a context manager)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, probe seconds)
        self.spent_s = 0.0  # wall time inside the timer handler

    def _on_timer(self, signum, frame) -> None:
        start = perf_counter()
        probe()
        end = perf_counter()
        self.samples.append((end, end - start))
        self.spent_s += perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe time while [start, end] was
        timed, or over the MIN_SAMPLES samples nearest to it if fewer were
        taken then: a time measured then, times this, reads in seconds on
        the reference host.  The host's speed changes within seconds, so
        the samples taken during the op track it best."""
        near = [d for t, d in self.samples if start <= t <= end]
        if len(near) < MIN_SAMPLES:
            mid = (start + end) / 2
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
        if not near:
            self._on_timer(signal.SIGALRM, None)
            near = [self.samples[-1][1]]
        return REFERENCE_S / statistics.fmean(near)
