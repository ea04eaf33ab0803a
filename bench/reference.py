"""A fixed stdlib reference loop that measures how fast the host runs right now.

The benchmark runs on a shared host whose speed drifts by a factor of two
over minutes and wanders by a fifth from one second to the next; the drift
slows every process alike, in CPU time as well as wall time.  Each pass
times this loop around and during every CLI call and rescales the call's
time to the speed at which the loop takes ``NOMINAL_S``:

    rescaled = measured * NOMINAL_S / (mean loop time around and during the call)

The loop imports nothing from ``clusterforge``, so no change to the program
moves it.  It does the same kinds of work as the program: exact ``Fraction``
elimination (like ``double_bruhat.det``), dicts keyed by small int tuples
(like Laurent terms) and sorting small tuples (like canonical keys).
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Time of one loop on an unloaded 2-vCPU Intel Xeon VM under CPython 3.11:
# rescaled times read as seconds at that speed.
NOMINAL_S = 0.06
# The loop is SLICES runs of one slice; a slice alone samples the host
# speed during a call, at the same cost per unit of work.
SLICES = 6
PERIOD_S = 0.5  # wall time between two slices during a call


def _det(rows: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in rows]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return d


def _slice() -> int:
    acc: dict[tuple[int, int], Fraction] = {}
    terms: dict[tuple[int, ...], int] = {}
    for i in range(40):
        rows = [[Fraction((i * 7 + r * 3 + c * 5) % 11 + 1, (r + c + i) % 5 + 1)
                 for c in range(5)] for r in range(5)]
        key = (i % 7, i % 3)
        acc[key] = acc.get(key, 0) + _det(rows)
        for a in range(12):
            for b in range(12):
                t = tuple(sorted((a % 4, b % 3, (a + b) % 5)))
                terms[t] = terms.get(t, 0) + a * b
    return len(acc) + len(terms)


def timed() -> float:
    """Wall time of one reference loop, in seconds."""
    t0 = time.perf_counter()
    for _ in range(SLICES):
        _slice()
    return time.perf_counter() - t0


def rescale(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the loop took ``ref_s``, at the nominal speed."""
    return seconds * NOMINAL_S / ref_s


class Sampler:
    """Times one slice every ``PERIOD_S`` of wall time while it is entered.

    The slice runs in a SIGALRM handler on the calling thread, so the
    program is paused meanwhile; ``paused_wall_s`` and ``paused_cpu_s`` add
    up the handler's time, which the caller subtracts from its own timing.
    ``samples`` holds each slice's time scaled to a whole loop.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused_wall_s = 0.0
        self.paused_cpu_s = 0.0

    def _tick(self, signum, frame) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        _slice()
        t1 = time.perf_counter()
        self.samples.append((t1 - t0) * SLICES)
        self.paused_wall_s += time.perf_counter() - t0
        self.paused_cpu_s += time.process_time() - c0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
