"""A yardstick for how fast the machine runs this kind of code right now.

The machines this benchmark runs on are shared.  The same pure-Python work
can take 1.5 times longer in one minute than in the next, and that swamps
most changes to the code.  So while a worker runs, a SIGALRM handler times
one call of ``calibration`` every PERIOD_S seconds.  The worker multiplies
each time it reports by REFERENCE_S / median(calibration times taken during
that interval, or within WINDOW_S of it).  A reported time then reads as
seconds on a machine that runs the calibration in REFERENCE_S, which is
about what a quiet 2 vCPU machine with CPython 3.11 does.  Time spent in
the handler is left out of every interval.

The calibration runs frozen copies of the seed code's broken-profile DP and
Bareiss elimination, so it slows down the way the package does.  A plain
arithmetic loop was tried first.  It sped up far more than the package in
some passes and over-corrected them, for example 6.77 s became 9.67 s.
Over six seeds of a workload of 160 small cases, the frozen kernels cut
the spread of its wall_s, measured as interquartile range over median,
from 0.146 to 0.031.  An earlier version used one factor for a whole
worker.  It did not follow the
speed changes within a worker: over six processes, the spread of one 0.15 s
lemma call's median time was 0.14 with that factor and 0.04 with the
calibration around each call.

These copies are never imported by the package, so no change to it moves
them.  Do not edit them: that would shift every time the benchmark reports.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.1
WINDOW_S = 0.3
REFERENCE_S = 0.0015
MIN_SAMPLES = 5

clock = time.perf_counter


def profile_sum(width: int, height: int) -> tuple[int, int]:
    """Signed tiling sum of a width x height rectangle, column by column."""
    full = (1 << height) - 1
    states = {0: (1, 0)}
    for x in range(width):
        nxt_col = full if x + 1 < width else 0
        new_states: dict = {}

        def fill(y, occupied, out, w):
            while y < height and occupied >> y & 1:
                y += 1
            if y == height:
                prior = new_states.get(out)
                new_states[out] = w if prior is None else (prior[0] + w[0], prior[1] + w[1])
                return
            if nxt_col >> y & 1:
                fill(y + 1, occupied | 1 << y, out | 1 << y, (-w[1], w[0]))
            if y + 1 < height and not occupied >> (y + 1) & 1:
                fill(y + 2, occupied | 3 << y, out, w)

        for mask, weight in states.items():
            fill(0, mask, 0, weight)
        states = new_states
    return states.get(0, (0, 0))


def folded_adjacency(m: int, n: int) -> list[list[int]]:
    basis = [(i, j) for i in range(1, m) for j in range(1, n) if (i + j) % 2 == 0]
    index = {cell: pos for pos, cell in enumerate(basis)}
    rows = [[0] * len(basis) for _ in basis]
    for col, (i, j) in enumerate(basis):
        for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if ni not in (0, m) and nj not in (0, n):
                rows[index[(ni, n - nj)]][col] -= 1
    return rows


def bareiss(matrix: list[list[int]]) -> int:
    a = [list(row) for row in matrix]
    size, sign, prev = len(a), 1, 1
    for k in range(size):
        pivot_row = next((r for r in range(k, size) if a[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, size):
            row_i, row_k, factor = a[i], a[k], a[i][k]
            for j in range(k + 1, size):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[size - 1][size - 1]


MATRIX = folded_adjacency(12, 7)  # dimension 33


def calibration() -> None:
    """About 2 ms of DP and elimination on a quiet machine."""
    profile_sum(8, 6)
    bareiss(MATRIX)


class Meter:
    """Samples the calibration from construction until stop() is called."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (now() when taken, seconds)
        self.handler_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, signum=None, frame=None) -> None:
        taken = self.now()
        start = clock()
        calibration()
        self.samples.append((taken, clock() - start))
        self.handler_s += clock() - start

    def now(self) -> float:
        """A clock that stands still while the handler runs."""
        return clock() - self.handler_s

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        while len(self.samples) < MIN_SAMPLES:
            self._sample()

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """What to multiply seconds measured between start and end (on the
        now() clock) by: REFERENCE_S over the median calibration time of
        the samples taken within WINDOW_S of that interval, or of the
        MIN_SAMPLES nearest to it if fewer were.  Without an interval, over
        every sample."""

        def distance(sample: tuple[float, float]) -> float:
            return max(start - sample[0], 0.0, sample[0] - end)

        ranked = sorted(self.samples, key=distance)
        near = [sample for sample in ranked if distance(sample) <= WINDOW_S]
        if len(near) < MIN_SAMPLES:
            near = ranked[:MIN_SAMPLES]
        return REFERENCE_S / statistics.median(seconds for _, seconds in near)
