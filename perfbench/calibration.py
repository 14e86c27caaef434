"""Host-speed calibration of the timed figures.

The benchmark runs on a few cores of a shared host, whose speed swings by
up to 1.6x as other load comes and goes.  Every raw time is therefore divided
by the host's speed around it, read from a fixed reference task run between
the ops: a pure-Python free-word reduction that does not touch braidbu, so no
change to the program can move it.

The harness pins itself, and so every process it starts, to one CPU, so
that the reference task runs where the ops ran.  Right after each op stops
its timer, ``Meter.owe(start, op_s)`` runs reference slices worth ``SHARE``
of the op's time.  ``Meter.factors()`` gives each op the mean slice time,
over ``REFERENCE_S``, of the slices that started from ``WINDOW_S`` before
the op to ``WINDOW_S`` after it: above 1 the host ran slower than the
reference host, and the op's time divided by its factor is the time it would
have taken there.  The mean, not the median, because the host flips between a
fast and a slow state every few tens of milliseconds, and an op's time
follows the share of each state while it ran.  A calibrated time keeps the
unit ``s``.
"""
from __future__ import annotations

import gc
import os
import random
from bisect import bisect_left, bisect_right
from statistics import fmean
from time import perf_counter

# Median time of one reference slice on the reference host (2-core Intel
# Xeon, Python 3.11.7, a calm hour).  A constant, so calibrated times from
# different runs and commits share one scale.
REFERENCE_S = 0.0094
SHARE = 0.25
WINDOW_S = 0.25

_rng = random.Random(20241101)
_WORDS = [tuple(_rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(40)) for _ in range(60)]
_RIGHT = _WORDS[:24]


def reference_slice() -> float:
    """Seconds taken by one fixed unit of reference work, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        products: dict[tuple, int] = {}
        for left in _WORDS:
            for right in _RIGHT:
                out = list(left)
                for letter in right:
                    if out and out[-1] == -letter:
                        out.pop()
                    else:
                        out.append(letter)
                key = tuple(out)
                products[key] = products.get(key, 0) + 1
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on a single CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Meter:
    """Reference slices taken between the ops of one pass."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.slice_starts: list[float] = []
        self.ops: list[tuple[float, float]] = []  # (start, end) of each op
        self._owed = 0.0

    def owe(self, start: float, op_s: float) -> None:
        """Run the reference slices earned by an op that started at ``start``
        (a ``perf_counter`` reading) and took ``op_s`` seconds."""
        self.ops.append((start, start + op_s))
        self._owed += op_s * SHARE / REFERENCE_S
        while self._owed >= 1:
            self.slice_starts.append(perf_counter())
            self.slices.append(reference_slice())
            self._owed -= 1

    def factors(self) -> list[float]:
        """One host speed factor per op, in the order the ops ran."""
        if not self.slices:
            self.slice_starts.append(perf_counter())
            self.slices.append(reference_slice())
        out = []
        for start, end in self.ops:
            first = bisect_left(self.slice_starts, start - WINDOW_S)
            last = bisect_right(self.slice_starts, end + WINDOW_S)
            out.append(fmean(self.slices[first:last] or self.slices) / REFERENCE_S)
        return out
