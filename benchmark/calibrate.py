"""Timings scaled to a reference machine speed.

The benchmark's host shares its cores with other work, and its speed drifts
by up to 2x within seconds: the same analysis takes 0.52 s at one moment and
1.1 s a few seconds later, in CPU time as in wall time.  A run's median wall
time moves with that drift, far more than a regression the benchmark must
catch.

So each timed sample sits between two passes of a fixed pure-Python
workload, the calibration, and its wall time is scaled by ``REFERENCE_S``
over the mean of the two calibration times: the time the sample would have
taken on a machine running the calibration in ``REFERENCE_S``.  The
calibration does the kind of work resha does (frozensets, dict counting, set
union, string formatting and sorting) and imports nothing from resha, so a
change to resha moves the scaled time and not the calibration.  The garbage
collector is off during a pass, so the heap a workload leaves behind does not
slow the calibration.

The two cores of such a host do not slow down together, so the benchmark and
every child it starts run on one CPU, where the calibration runs too.  Load
is sequential and resha is single-threaded, so this takes no parallelism away.
"""

from __future__ import annotations

import functools
import gc
import os
import random
import time

# Seconds one calibration pass took on a 2-core x86-64 host with Python
# 3.11.7 when it ran at its fastest; a scaled time is a time at that speed.
REFERENCE_S = 0.025

_ROUNDS = 8


@functools.cache
def _rows() -> list[tuple[int, ...]]:
    """The calibration's input; built on first use, so that importing this
    module adds nothing to a worker's set-up time."""
    rng = random.Random(20220912)
    return [tuple(rng.sample(range(2000), 4)) for _ in range(2000)]


def _round() -> int:
    sets = [frozenset(row) for row in _rows()]
    seen: dict[frozenset, int] = {}
    for s in sets:
        seen[s] = seen.get(s, 0) + 1
    union: set[int] = set()
    for s in sets:
        union |= s
    keys = sorted(f"{min(s)}-{max(s)}" for s in sets)
    return len(seen) + len(union) + len(keys)


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts later, on its lowest allowed CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibration_s() -> float:
    """Wall seconds of one calibration pass, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            _round()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Scales consecutive samples; a sample shares its calibrations with its neighbours.

    ``start()`` calibrates before a sample; ``scale(wall_s)`` calibrates after
    it and returns the scaled time.  Samples taken back to back need only one
    ``start()``; one taken after a pause needs its own.
    """

    def __init__(self) -> None:
        calibration_s()  # warm-up, not used
        self.last = calibration_s()

    def start(self) -> None:
        self.last = calibration_s()

    def scale(self, wall_s: float) -> float:
        after = calibration_s()
        factor = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return wall_s * factor
