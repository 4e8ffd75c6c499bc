"""Spans stamped in both simulation and wall-clock time.

A span is one named interval — a workflow run, a node's execution, a task
attempt, a backoff wait — with arbitrary labels.  Every span carries *two*
clocks:

* ``sim_start`` / ``sim_end`` — the reactor's virtual time, the clock the
  paper's completion-time results are measured on.  Exports (Chrome
  ``trace_event``, Perfetto) are laid out on this axis so a trace of a
  simulated run reads like a timeline of the simulated Grid, not of the
  host CPU;
* ``wall_start`` / ``wall_end`` — ``time.perf_counter`` at publish time,
  for profiling the *simulator itself*.

Spans are built by a fold over the bus's event log
(:class:`~repro.obs.observer.RunObserver`), which reads both stamps off the
log record: :meth:`SpanRecorder.record` opens a span at given stamps and
whoever learns of its end writes ``sim_end`` / ``wall_end``.  Many task
attempts are in flight at once, so a span names its parent explicitly.
The recorder is a bounded ring (old spans fall off the back), so a long
campaign cannot grow memory without bound.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Span", "SpanRecorder"]

#: Spans a recorder keeps; the oldest falls off when a newer one arrives.
_CAPACITY = 65536


@dataclass(slots=True)
class Span:
    """One recorded interval; ``sim_end is None`` while still open."""

    id: int
    name: str
    sim_start: float
    wall_start: float
    labels: dict[str, Any] = field(default_factory=dict)
    parent: int | None = None
    sim_end: float | None = None
    wall_end: float | None = None

    @property
    def open(self) -> bool:
        return self.sim_end is None

    @property
    def sim_duration(self) -> float:
        """Virtual seconds covered (0.0 while open)."""
        return 0.0 if self.sim_end is None else self.sim_end - self.sim_start

    @property
    def wall_duration(self) -> float:
        return 0.0 if self.wall_end is None else self.wall_end - self.wall_start


class SpanRecorder:
    """Bounded ring of :class:`Span` objects, ids in recording order."""

    def __init__(self) -> None:
        self._ring: deque[Span] = deque(maxlen=_CAPACITY)
        self._ids = itertools.count(1)

    def record(
        self,
        name: str,
        labels: dict[str, Any],
        parent: int | None,
        sim: float,
        wall: float,
    ) -> Span:
        """Open a span at the given stamps.  The span takes ownership of
        *labels* (no copy), so the caller must not reuse the dict."""
        span = Span(next(self._ids), name, sim, wall, labels, parent)
        self._ring.append(span)
        return span

    @property
    def spans(self) -> list[Span]:
        """Recorded spans, oldest first (bounded by the ring capacity)."""
        return list(self._ring)
