"""A fixed yardstick that rescales wall times to a nominal machine speed.

The shared virtual machines this benchmark runs on change speed by up to
~1.8x within minutes, with no steal time reported, so wall times of the
same code taken minutes apart disagree by more than any useful bound. A
short, fixed slice of work is therefore timed between library calls all
through a run, in proportion to the time the library takes. Dividing a
wall time by the mean slice time of the same period counts it in slices,
which moves far less with the machine; multiplying by ``NOMINAL_SLICE_S``
turns that count back into seconds at the speed where one slice takes
``NOMINAL_SLICE_S``.

The slice calls numpy and the standard library only, never photonstats,
so a change to the library cannot move the yardstick. Its kernels are the
kinds of code whose speed followed the library's most closely when the
machine slowed: many numpy calls on tiny arrays, rational arithmetic and
nested loops of small Python function calls, plus a few dense mat-vec
pairs like the TV solver's. Kernels dominated by large arrays or by one
tight loop slowed less than the library did, so they are left out.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

# One slice on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, OpenBLAS
# 0.3.31 at 1 thread) when that machine runs fast.
NOMINAL_SLICE_S = 0.015
# Library time between slices: the yardstick adds about 7% to a run.
INTERVAL_S = 0.25


def _poisson(n: int, mean: float) -> float:
    return math.exp(-mean) * mean**n / math.factorial(n)


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mat = rng.standard_normal((256, 1024)) / 64.0
        self._vec = np.ones(1024)
        self._tiny = np.linspace(0.0, 1.0, 32)
        self.active = False
        self.total_s = 0.0
        self.slices = 0
        self._due = 0.0

    def _work(self):
        for _ in range(3):
            y = self._vec
            for _ in range(15):
                y = self._mat.T @ (self._mat @ y)
                y /= np.linalg.norm(y)
            x = self._tiny
            for _ in range(600):
                x = np.cumsum(x) * 0.01 + x[::-1]
            total = Fraction(0)
            for i in range(1, 200):
                total += Fraction(1, i * i)
            s = 0.0
            for n in range(40):
                for m in range(40 - n):
                    s += _poisson(n, 0.5) * _poisson(m, 1.5)

    def slice(self) -> float:
        t = time.perf_counter()
        self._work()
        dt = time.perf_counter() - t
        self.total_s += dt
        self.slices += 1
        return dt

    def after_call(self, seconds: float):
        """Account ``seconds`` of library time; run the slices that fall due."""
        if not self.active:
            return
        self._due += seconds
        while self._due >= INTERVAL_S:
            self._due -= INTERVAL_S
            self.slice()

    def mark(self) -> tuple[float, int]:
        return self.total_s, self.slices

    def since(self, mark: tuple[float, int]) -> tuple[float, int]:
        """Slice time and slice count since ``mark``."""
        return self.total_s - mark[0], self.slices - mark[1]


def rescale(seconds: float, slice_s: float, slices: int) -> float:
    """``seconds`` of wall time at the nominal speed, given the time
    ``slice_s`` that ``slices`` slices took over the same period."""
    return seconds * NOMINAL_SLICE_S * slices / slice_s
