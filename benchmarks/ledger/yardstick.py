"""A fixed computation timed next to every repetition.

The sandbox this ledger runs in shares its cores: whole runs come out 10%
faster or slower than their neighbours depending on what else the host is
doing, and no statistic over one run's repetitions can see through a
drift that lasts longer than the run.  A yardstick can: the same small,
never-changing computation is timed immediately before each repetition,
and the repetition is reported as a multiple of it.  When the machine
slows down both slow down, and the ratio holds.

The yardsticks use the standard library and NumPy only — nothing from
``repro`` — so no change to the program can move them.  There are two
because interference does not slow interpreter-bound and array-bound
code alike: ``python`` is heap, dict and attribute traffic like the
engine's reactor loop; ``numpy`` is draw-mask-reduce like the samplers.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

__all__ = ["Yardstick", "YARDSTICKS"]


class _Cell:
    __slots__ = ("key", "hits")

    def __init__(self, key: str) -> None:
        self.key = key
        self.hits = 0

    def touch(self) -> int:
        self.hits += 1
        return self.hits


def python_yardstick(steps: int = 40_000) -> int:
    """Timer-heap churn, string-keyed dict lookups and method calls."""
    heap: list[list] = []
    cells: dict[str, _Cell] = {}
    push, pop = heapq.heappush, heapq.heappop
    total = 0
    for i in range(steps):
        push(heap, [float((i * 7919) % 1000), i, None])
        key = f"task.done.wf-{i % 512}"
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _Cell(key)
        total += cell.touch()
        if i % 3 == 0:
            pop(heap)
    return total + len(heap)


def numpy_yardstick(size: int = 1_200_000) -> float:
    """Exponential draws, a mask and a reduction over a fresh vector."""
    rng = np.random.default_rng(20030623)
    draws = rng.exponential(30.0, size=size)
    return float(np.where(draws < 20.0, draws, draws * 2.0).sum())


class Yardstick:
    """A yardstick function and the seconds it takes on the reference
    machine (this sandbox on a quiet night).  Times are reported in
    *reference seconds*: ``wall / yardstick wall × nominal``, which reads
    like wall seconds when the machine is quiet and stays put when it is
    not."""

    def __init__(self, fn, nominal_s: float) -> None:
        self.fn = fn
        self.nominal_s = nominal_s

    def time(self) -> float:
        """Seconds one pass takes now.  The collector is held off: what it
        would cost depends on how many objects the program under test
        keeps alive, and the yardstick must not depend on the program."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.fn()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def reference_seconds(self, wall: float, before: float, after: float) -> float:
        """*wall* seconds measured between two yardstick passes, in
        reference seconds."""
        return wall / ((before + after) / 2.0) * self.nominal_s


YARDSTICKS = {
    "python": Yardstick(python_yardstick, 0.030),
    "numpy": Yardstick(numpy_yardstick, 0.0165),
}
